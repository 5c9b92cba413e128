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
	"fmt"
	"math"

	"coormv2"
)

const cluster = coormv2.ClusterID("c0")

// logger prints every notification with a timestamp. A view names every
// cluster of the RMS, so a fully booked one prints as "c0: [(inf, 0)]".
type logger struct {
	name    string
	sim     *coormv2.Simulation
	session *coormv2.Session
	// onViews/onStart let the two mini-apps below react.
	onViews func(np, p coormv2.View)
	onStart func(id coormv2.RequestID, nodes []int)
}

func (l *logger) OnViews(np, p coormv2.View) {
	fmt.Printf("[t=%4.0f] %s: views updated: non-preemptive %v | preemptive %v\n",
		l.sim.Now(), l.name, np, p)
	if l.onViews != nil {
		l.onViews(np, p)
	}
}

func (l *logger) OnStart(id coormv2.RequestID, nodes []int) {
	fmt.Printf("[t=%4.0f] %s: request %d started, nodes %v\n", l.sim.Now(), l.name, id, nodes)
	if l.onStart != nil {
		l.onStart(id, nodes)
	}
}

func (l *logger) OnKill(reason string) {
	fmt.Printf("%s: killed: %s\n", l.name, reason)
}

func main() {
	sim := coormv2.NewSimulation(map[coormv2.ClusterID]int{cluster: 16})

	// --- The evolving application (steps 1–5 of Fig. 8). -----------------
	nea := &logger{name: "NEA      ", sim: sim}
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
	mal := &logger{name: "malleable", sim: sim}
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
			fmt.Printf("[t=%4.0f] malleable: releasing nodes %v\n", sim.Now(), release)
			malReq = next
			malHeld = malHeld[:avail]
		}
	}
	malSess := sim.Server.Connect(mal)
	mal.session = malSess

	sim.Run(60)

	// --- Steps 10–15: the NEA spontaneously updates 4 → 10 nodes. --------
	fmt.Printf("[t=%4.0f] NEA      : spontaneous update, 4 -> 10 nodes\n", sim.Now())
	next, err := neaSess.Request(coormv2.RequestSpec{
		Cluster: cluster, N: 10, Duration: 10_000,
		Type: coormv2.NonPreempt, RelatedHow: coormv2.Next, RelatedTo: cur,
	})
	check(err)
	check(neaSess.Done(cur, nil))
	_ = next

	sim.Run(120)

	fmt.Println()
	fmt.Printf("NEA allocated area so far: %.0f node·s; malleable area: %.0f node·s\n",
		sim.Metrics.Area(neaSess.AppID(), sim.Now()),
		sim.Metrics.Area(malSess.AppID(), sim.Now()))
	fmt.Println("The update succeeded without the NEA ever over-allocating:")
	fmt.Println("pre-allocated-but-unused nodes did useful malleable work until reclaimed.")
}

// sess gives the logger late access to its session (it is created after
// the handler, because Connect needs the handler first).
func (l *logger) sess() *coormv2.Session { return l.session }

func check(err error) {
	if err != nil {
		panic(err)
	}
}
