// netdemo: the real-life prototype path — a CooRMv2 daemon served over TCP
// on the wall clock, with two clients speaking the JSON protocol: a rigid
// job and a malleable application that fills and releases preemptible
// resources. Everything runs in one process for demonstration purposes;
// cmd/coormd and cmd/coormctl are the standalone equivalents.
//
// Run with: go run ./examples/netdemo
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"coormv2"
)

const cluster = coormv2.ClusterID("main")

// client is a minimal transport.Handler that records notifications.
type client struct {
	name string
	say  func(format string, a ...any)
	mu   sync.Mutex
	held []int
	c    *coormv2.Client

	onViews func(p coormv2.View)
}

func (a *client) OnViews(np, p coormv2.View) {
	if a.onViews != nil {
		a.onViews(p)
	}
}

func (a *client) OnStart(id coormv2.RequestID, nodes []int) {
	a.mu.Lock()
	a.held = nodes
	a.mu.Unlock()
	a.say("%s: request %d started on %v\n", a.name, id, nodes)
}

func (a *client) OnKill(reason string) {
	a.say("%s: killed: %s\n", a.name, reason)
}

func (a *client) heldNodes() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int(nil), a.held...)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it plays the demo over loopback TCP and
// returns the exit code (2 for a usage error, 1 when the demo fails).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netdemo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// say prints for run and for the handlers, which run on the clients'
	// own goroutines.
	var outMu sync.Mutex
	say := func(format string, a ...any) {
		outMu.Lock()
		defer outMu.Unlock()
		fmt.Fprintf(stdout, format, a...)
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "netdemo: %v\n", err)
		return 1
	}

	// Start the daemon on an ephemeral port, wall clock, fast rounds.
	daemon := coormv2.NewDaemon(coormv2.NewServer(coormv2.ServerConfig{
		Clusters:        map[coormv2.ClusterID]int{cluster: 16},
		ReschedInterval: 0.05,
		Clock:           coormv2.NewRealClock(),
		Metrics:         coormv2.NewRecorder(),
	}))
	addr, err := daemon.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	go daemon.Serve()
	defer daemon.Close()
	say("coormd listening on %s\n", addr)

	// A malleable client that grabs all preemptible resources and releases
	// on demand. The first view can arrive on the read goroutine before
	// Dial returns, so the handler receives its client through a channel.
	mal := &client{name: "malleable", say: say}
	ready := make(chan *coormv2.Client, 1)
	var malReq coormv2.RequestID
	var malMu sync.Mutex
	mal.onViews = func(p coormv2.View) {
		malMu.Lock()
		defer malMu.Unlock()
		if mal.c == nil {
			mal.c = <-ready
		}
		// Views are trimmed to [now, ∞), so the leading value is the
		// current availability.
		avail := p.Get(cluster).Value(0)
		held := mal.heldNodes()
		switch {
		case malReq == 0 && avail > 0:
			id, err := mal.c.Request(coormv2.RequestSpec{
				Cluster: cluster, N: avail, Duration: math.Inf(1), Type: coormv2.Preempt,
			})
			if err == nil {
				malReq = id
			}
		case malReq != 0 && avail < len(held):
			rel := held[avail:]
			id, err := mal.c.Request(coormv2.RequestSpec{
				Cluster: cluster, N: avail, Duration: math.Inf(1),
				Type: coormv2.Preempt, RelatedHow: coormv2.Next, RelatedTo: malReq,
			})
			if err != nil {
				return
			}
			if err := mal.c.Done(malReq, rel); err != nil {
				return
			}
			say("malleable: released %v\n", rel)
			malReq = id
		}
	}
	malClient, err := coormv2.Dial(addr, mal)
	if err != nil {
		return fail(err)
	}
	ready <- malClient
	defer malClient.Close()

	// Let the malleable app claim the whole cluster.
	deadline0 := time.Now().Add(3 * time.Second)
	for len(mal.heldNodes()) < 16 && time.Now().Before(deadline0) {
		time.Sleep(20 * time.Millisecond)
	}
	if len(mal.heldNodes()) != 16 {
		say("netdemo: FAILED — malleable app never claimed the cluster\n")
		return 1
	}

	// A rigid client needing 10 of the 16 nodes: the malleable app must
	// yield them.
	rigid := &client{name: "rigid", say: say}
	rc, err := coormv2.Dial(addr, rigid)
	if err != nil {
		return fail(err)
	}
	defer rc.Close()
	id, err := rc.Request(coormv2.RequestSpec{
		Cluster: cluster, N: 10, Duration: 3600, Type: coormv2.NonPreempt,
	})
	if err != nil {
		return fail(err)
	}
	say("rigid: submitted request %d for 10 nodes\n", id)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(rigid.heldNodes()) == 10 {
			say("rigid: got its allocation; malleable now holds %d nodes\n",
				len(mal.heldNodes()))
			say("netdemo: OK — preemption over the real TCP protocol works\n")
			return 0
		}
		time.Sleep(20 * time.Millisecond)
	}
	say("netdemo: FAILED — rigid job never started\n")
	return 1
}
