package transport

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/federation"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/view"
)

const c0 = view.ClusterID("c0")

// clientApp collects notifications with synchronization helpers.
type clientApp struct {
	mu     sync.Mutex
	views  int
	starts map[request.ID][]int
	killed string
	cond   *sync.Cond
}

func newClientApp() *clientApp {
	a := &clientApp{starts: make(map[request.ID][]int)}
	a.cond = sync.NewCond(&a.mu)
	return a
}

func (a *clientApp) OnViews(np, p view.View) {
	a.mu.Lock()
	a.views++
	a.cond.Broadcast()
	a.mu.Unlock()
}

func (a *clientApp) OnStart(id request.ID, ids []int) {
	a.mu.Lock()
	a.starts[id] = ids
	a.cond.Broadcast()
	a.mu.Unlock()
}

func (a *clientApp) OnKill(reason string) {
	a.mu.Lock()
	a.killed = reason
	a.cond.Broadcast()
	a.mu.Unlock()
}

// waitFor polls until pred (evaluated under the lock) is true or the
// deadline expires.
func (a *clientApp) waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	eventually(t, what, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return pred()
	})
}

// eventually polls cond, which waits on a network event, until it holds; the
// test fails after 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stepClock is a clock.Clock that moves only when the test steps it. Unlike
// clock.SimClock it is safe for concurrent use: a server's or client's
// goroutines arm and read it while the test steps.
type stepClock struct {
	mu     sync.Mutex
	now    float64
	timers []*stepTimer
}

type stepTimer struct {
	c       *stepClock
	at      float64
	fn      func()
	pending bool // under c.mu
}

func (c *stepClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) AfterFunc(d float64, _ string, fn func()) clock.Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &stepTimer{c: c, at: c.now + max(d, 0), fn: fn, pending: true}
	c.timers = append(c.timers, t)
	return t
}

func (t *stepTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.pending
	t.pending = false
	return was
}

// step advances the clock by d and runs the timers then due, in deadline
// order, on the calling goroutine. A timer a callback arms is due at the
// next step at the earliest.
func (c *stepClock) step(d float64) {
	c.mu.Lock()
	c.now += d
	var due, keep []*stepTimer
	for _, t := range c.timers {
		switch {
		case !t.pending:
		case t.at <= c.now:
			t.pending = false
			due = append(due, t)
		default:
			keep = append(keep, t)
		}
	}
	c.timers = keep
	c.mu.Unlock()
	slices.SortStableFunc(due, func(a, b *stepTimer) int { return cmp.Compare(a.at, b.at) })
	for _, t := range due {
		t.fn()
	}
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	r := federation.New(federation.Config{
		Clusters:        map[view.ClusterID]int{c0: 16},
		ReschedInterval: 0.01, // fast rounds for the test
		Clock:           clock.NewRealClock(),
	})
	srv := NewServer(r)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr
}

func TestHandshakeAndViews(t *testing.T) {
	_, addr := startServer(t)
	app := newClientApp()
	c, err := Dial(addr, app)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.AppID() == 0 {
		t.Error("no app ID assigned")
	}
	app.waitFor(t, "initial views", func() bool { return app.views > 0 })
}

func TestRequestStartDoneOverTCP(t *testing.T) {
	_, addr := startServer(t)
	app := newClientApp()
	c, err := Dial(addr, app)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, err := c.Request(rms.RequestSpec{Cluster: c0, N: 4, Duration: 3600, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	app.waitFor(t, "start notification", func() bool { _, ok := app.starts[id]; return ok })
	app.mu.Lock()
	ids := app.starts[id]
	app.mu.Unlock()
	if len(ids) != 4 {
		t.Errorf("node IDs = %v, want 4", ids)
	}
	if err := c.Done(id, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRequestErrorsPropagate(t *testing.T) {
	_, addr := startServer(t)
	app := newClientApp()
	c, err := Dial(addr, app)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Request(rms.RequestSpec{Cluster: "bogus", N: 1, Duration: 1, Type: request.NonPreempt}); err == nil {
		t.Error("unknown cluster should error over the wire")
	}
	// The server's reason arrives as is: one "rms: " prefix, not two.
	if err := c.Done(12345, nil); err == nil || err.Error() != "rms: request 12345 not found" {
		t.Errorf("bogus done over the wire: %v, want \"rms: request 12345 not found\"", err)
	}
	// The session survives errors.
	if _, err := c.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 10, Type: request.NonPreempt}); err != nil {
		t.Errorf("session broken after error: %v", err)
	}
}

func TestTwoClientsShareCluster(t *testing.T) {
	_, addr := startServer(t)
	a, b := newClientApp(), newClientApp()
	ca, err := Dial(addr, a)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := Dial(addr, b)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	ida, err := ca.Request(rms.RequestSpec{Cluster: c0, N: 10, Duration: 3600, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	a.waitFor(t, "client A start", func() bool { _, ok := a.starts[ida]; return ok })

	idb, err := cb.Request(rms.RequestSpec{Cluster: c0, N: 6, Duration: 3600, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	b.waitFor(t, "client B start", func() bool { _, ok := b.starts[idb]; return ok })

	// 16 nodes total: the two allocations must not overlap.
	a.mu.Lock()
	idsA := a.starts[ida]
	a.mu.Unlock()
	b.mu.Lock()
	idsB := b.starts[idb]
	b.mu.Unlock()
	seen := map[int]bool{}
	for _, id := range idsA {
		seen[id] = true
	}
	for _, id := range idsB {
		if seen[id] {
			t.Fatalf("node %d allocated twice (A=%v B=%v)", id, idsA, idsB)
		}
	}
}

func TestPreemptibleInfiniteDurationOverTCP(t *testing.T) {
	_, addr := startServer(t)
	app := newClientApp()
	c, err := Dial(addr, app)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Request(rms.RequestSpec{Cluster: c0, N: 16, Duration: math.Inf(1), Type: request.Preempt})
	if err != nil {
		t.Fatal(err)
	}
	app.waitFor(t, "preemptible start", func() bool { _, ok := app.starts[id]; return ok })
}

func TestKillDeliveredOverTCP(t *testing.T) {
	// A client that ignores preemption signals is killed; the kill frame
	// must reach it and subsequent calls must fail.
	r := federation.New(federation.Config{
		Clusters:        map[view.ClusterID]int{c0: 8},
		ReschedInterval: 0.01,
		GracePeriod:     0.05,
		Clock:           clock.NewRealClock(),
	})
	srv := NewServer(r)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	stealer := newClientApp() // never reacts to views
	cs, err := Dial(addr, stealer)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	_, err = cs.Request(rms.RequestSpec{Cluster: c0, N: 8, Duration: math.Inf(1), Type: request.Preempt})
	if err != nil {
		t.Fatal(err)
	}
	stealer.waitFor(t, "stealer start", func() bool { return len(stealer.starts) == 1 })

	victim := newClientApp()
	cv, err := Dial(addr, victim)
	if err != nil {
		t.Fatal(err)
	}
	defer cv.Close()
	if _, err := cv.Request(rms.RequestSpec{Cluster: c0, N: 4, Duration: 60, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}

	stealer.waitFor(t, "kill frame", func() bool { return stealer.killed != "" })
	victim.waitFor(t, "victim start after kill", func() bool { return len(victim.starts) == 1 })

	if _, err := cs.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 1, Type: request.NonPreempt}); err == nil {
		t.Error("requests on a killed session should fail")
	}
}

func TestCleanDisconnectFreesResources(t *testing.T) {
	srv, addr := startServer(t)
	app := newClientApp()
	c, err := Dial(addr, app)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Request(rms.RequestSpec{Cluster: c0, N: 8, Duration: 3600, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	app.waitFor(t, "start", func() bool { _, ok := app.starts[id]; return ok })
	c.Close()

	// A second client can now get everything.
	app2 := newClientApp()
	c2, err := Dial(addr, app2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	id2, err := c2.Request(rms.RequestSpec{Cluster: c0, N: 16, Duration: 3600, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	app2.waitFor(t, "full-cluster start", func() bool { _, ok := app2.starts[id2]; return ok })
	_ = srv
}
