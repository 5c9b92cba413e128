// Quickstart: the Fig. 8 interaction on a simulated 16-node cluster.
//
// A non-predictably evolving application (NEA) pre-allocates 12 nodes but
// initially allocates only 4; a malleable application fills the 12 unused
// nodes preemptibly; when the NEA performs a spontaneous update to 10
// nodes, the RMS signals the malleable application through its preemptive
// view, the malleable application releases nodes, and the NEA's update is
// served — all inside its guaranteed pre-allocation.
//
// Run with: go run ./examples/quickstart
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"coormv2"
)

const cluster = coormv2.ClusterID("c0")

// logger prints every notification with a timestamp. A view names every
// cluster of the RMS, so a fully booked one prints as "c0: [(inf, 0)]".
type logger struct {
	name    string
	out     io.Writer
	sim     *coormv2.Simulation
	session *coormv2.Session
	// onViews/onStart let the two mini-apps below react.
	onViews func(np, p coormv2.View)
	onStart func(id coormv2.RequestID, nodes []int)
}

func (l *logger) OnViews(np, p coormv2.View) {
	fmt.Fprintf(l.out, "[t=%4.0f] %s: views updated: non-preemptive %v | preemptive %v\n",
		l.sim.Now(), l.name, np, p)
	if l.onViews != nil {
		l.onViews(np, p)
	}
}

func (l *logger) OnStart(id coormv2.RequestID, nodes []int) {
	fmt.Fprintf(l.out, "[t=%4.0f] %s: request %d started, nodes %v\n", l.sim.Now(), l.name, id, nodes)
	if l.onStart != nil {
		l.onStart(id, nodes)
	}
}

func (l *logger) OnKill(reason string) {
	fmt.Fprintf(l.out, "%s: killed: %s\n", l.name, reason)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it plays the interaction, printing its
// log to stdout, and returns the exit code (2 for a usage error, 1 when the
// RMS refuses one of the script's requests).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quickstart", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// failed keeps the first request the RMS refused, whether the script or
	// a notification handler made it; the run then exits 1.
	var failed error
	check := func(err error) {
		if failed == nil {
			failed = err
		}
	}

	sim := coormv2.NewSimulation(map[coormv2.ClusterID]int{cluster: 16})

	// --- The evolving application (steps 1–5 of Fig. 8). -----------------
	nea := &logger{name: "NEA      ", out: stdout, sim: sim}
	neaSess := sim.Server.Connect(nea)
	pa, err := neaSess.Request(coormv2.RequestSpec{
		Cluster: cluster, N: 12, Duration: 10_000, Type: coormv2.PreAlloc,
	})
	check(err)
	cur, err := neaSess.Request(coormv2.RequestSpec{
		Cluster: cluster, N: 4, Duration: 10_000,
		Type: coormv2.NonPreempt, RelatedHow: coormv2.Coalloc, RelatedTo: pa,
	})
	check(err)

	// --- The malleable application (steps 6–9). --------------------------
	mal := &logger{name: "malleable", out: stdout, sim: sim}
	var malReq coormv2.RequestID
	var malHeld []int
	mal.onStart = func(id coormv2.RequestID, nodes []int) {
		if id == malReq {
			malHeld = nodes
		}
	}
	mal.onViews = func(_, p coormv2.View) {
		avail := p.Get(cluster).Value(sim.Now())
		switch {
		case malReq == 0 && avail > 0:
			var err error
			malReq, err = mal.sess().Request(coormv2.RequestSpec{
				Cluster: cluster, N: avail, Duration: math.Inf(1), Type: coormv2.Preempt,
			})
			check(err)
		case malReq != 0 && avail < len(malHeld):
			// Steps 13–14: the RMS asked for nodes back; release instantly.
			release := malHeld[avail:]
			next, err := mal.sess().Request(coormv2.RequestSpec{
				Cluster: cluster, N: avail, Duration: math.Inf(1),
				Type: coormv2.Preempt, RelatedHow: coormv2.Next, RelatedTo: malReq,
			})
			check(err)
			check(mal.sess().Done(malReq, release))
			fmt.Fprintf(stdout, "[t=%4.0f] malleable: releasing nodes %v\n", sim.Now(), release)
			malReq = next
			malHeld = malHeld[:avail]
		}
	}
	malSess := sim.Server.Connect(mal)
	mal.session = malSess

	sim.Run(60)

	// --- Steps 10–15: the NEA spontaneously updates 4 → 10 nodes. --------
	fmt.Fprintf(stdout, "[t=%4.0f] NEA      : spontaneous update, 4 -> 10 nodes\n", sim.Now())
	_, err = neaSess.Request(coormv2.RequestSpec{
		Cluster: cluster, N: 10, Duration: 10_000,
		Type: coormv2.NonPreempt, RelatedHow: coormv2.Next, RelatedTo: cur,
	})
	check(err)
	check(neaSess.Done(cur, nil))

	sim.Run(120)
	if failed != nil {
		fmt.Fprintf(stderr, "quickstart: %v\n", failed)
		return 1
	}

	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "NEA allocated area so far: %.0f node·s; malleable area: %.0f node·s\n",
		sim.Metrics.Area(neaSess.AppID(), sim.Now()),
		sim.Metrics.Area(malSess.AppID(), sim.Now()))
	fmt.Fprintln(stdout, "The update succeeded without the NEA ever over-allocating:")
	fmt.Fprintln(stdout, "pre-allocated-but-unused nodes did useful malleable work until reclaimed.")
	return 0
}

// sess gives the logger late access to its session (it is created after
// the handler, because Connect needs the handler first).
func (l *logger) sess() *coormv2.Session { return l.session }
