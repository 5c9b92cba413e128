package rms

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// observerApp records every notification, including the RequestObserver
// extension.
type observerApp struct {
	starts   []request.ID
	finished []request.ID
	reaped   []request.ID
	killed   string
}

func (a *observerApp) OnViews(_, _ view.View)            {}
func (a *observerApp) OnStart(id request.ID, _ []int)    { a.starts = append(a.starts, id) }
func (a *observerApp) OnKill(reason string)              { a.killed = reason }
func (a *observerApp) OnRequestFinished(id request.ID)   { a.finished = append(a.finished, id) }
func (a *observerApp) OnRequestsReaped(ids []request.ID) { a.reaped = append(a.reaped, ids...) }

func newStopTestServer(rec *metrics.Recorder) (*sim.Engine, *Server) {
	e := sim.NewEngine()
	s := NewServer(Config{
		Clusters:        map[view.ClusterID]int{"c": 8},
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		Metrics:         rec,
	})
	return e, s
}

func TestStopDropsStateAndClosesMetrics(t *testing.T) {
	rec := metrics.NewRecorder()
	e, s := newStopTestServer(rec)
	app := &observerApp{}
	sess := connect(s, app)
	if _, err := submit(sess, RequestSpec{Cluster: "c", N: 4, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if len(app.starts) != 1 {
		t.Fatalf("starts = %v, want 1", app.starts)
	}
	if got := rec.Current(sess.AppID()); got != 4 {
		t.Fatalf("current alloc = %d, want 4", got)
	}

	s.Stop()
	if !s.Stopped() {
		t.Fatal("server should report stopped")
	}
	// The crash is silent: no OnKill.
	if app.killed != "" {
		t.Fatalf("crash must not notify, got OnKill(%q)", app.killed)
	}
	// Metrics stop accruing at the crash instant.
	if got := rec.Current(sess.AppID()); got != 0 {
		t.Fatalf("current alloc after crash = %d, want 0", got)
	}
	area := rec.Area(sess.AppID(), e.Now())
	if got := rec.Area(sess.AppID(), e.Now()+100); got != area {
		t.Fatalf("area keeps growing after crash: %v → %v", area, got)
	}
	// Every operation fails.
	if _, err := submit(sess, RequestSpec{Cluster: "c", N: 1, Duration: 1, Type: request.NonPreempt}); err == nil {
		t.Error("Request on a stopped server should fail")
	}
	if err := sess.Done(1, nil); err == nil {
		t.Error("Done on a stopped server should fail")
	}
	if _, err := s.ConnectID(&observerApp{}, 7); !errors.Is(err, ErrStopped) {
		t.Errorf("ConnectID error = %v, want ErrStopped", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("stopped-server invariants: %v", err)
	}
	// Queued timers must not fire a round after the crash.
	e.Run(e.Now() + 50)
	if s.Stopped() != true {
		t.Fatal("still stopped")
	}
}

// blockedViews is a handler whose first OnViews closes entered and then
// waits for release.
type blockedViews struct {
	entered, release chan struct{}
	once             sync.Once
}

func (a *blockedViews) OnViews(_, _ view.View) {
	a.once.Do(func() {
		close(a.entered)
		<-a.release
	})
}
func (a *blockedViews) OnStart(request.ID, []int) {}
func (a *blockedViews) OnKill(string)             {}

// inDeliveryFence reports whether some goroutine waits in a server's
// delivery fence.
func inDeliveryFence() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("rms.(*Server).awaitDeliveryLocked"))
}

// TestStopWaitsOutDelivery crashes a server on clock.RealClock while its
// round goroutine is inside a handler: Stop returns only once that delivery
// has ended, so no notification of the crashed server can trail what a
// routing layer tells the applications about the crash.
func TestStopWaitsOutDelivery(t *testing.T) {
	s := NewServer(Config{
		Clusters:        map[view.ClusterID]int{"c": 4},
		ReschedInterval: 1e-3,
		Clock:           clock.NewRealClock(),
	})
	app := &blockedViews{entered: make(chan struct{}), release: make(chan struct{})}
	released := false
	defer func() {
		if !released {
			close(app.release)
		}
	}()
	connect(s, app) // the first round pushes
	deadline := time.After(10 * time.Second)
	select {
	case <-app.entered:
	case <-deadline:
		t.Fatal("no push")
	}
	stopped := make(chan struct{})
	go func() {
		s.Stop()
		close(stopped)
	}()
	for !inDeliveryFence() {
		select {
		case <-stopped:
			t.Fatal("Stop returned while a delivery was in progress")
		case <-deadline:
			t.Fatal("Stop never waited for the delivery")
		default:
			runtime.Gosched()
		}
	}
	released = true
	close(app.release)
	select {
	case <-stopped:
	case <-deadline:
		t.Fatal("Stop did not return once the delivery ended")
	}
}

func TestResetRejoinsEmpty(t *testing.T) {
	e, s := newStopTestServer(nil)
	app := &observerApp{}
	sess := connect(s, app)
	if _, err := submit(sess, RequestSpec{Cluster: "c", N: 8, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	s.Stop()
	s.Reset()
	if s.Stopped() {
		t.Fatal("Reset should clear the stopped state")
	}
	// Fresh ID spaces and a full pool: a new app gets ID 1 and all 8 nodes.
	app2 := &observerApp{}
	sess2, err := s.ConnectID(app2, 1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := submit(sess2, RequestSpec{Cluster: "c", N: 8, Duration: 10, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("request ID after Reset = %d, want 1", id)
	}
	e.Run(e.Now() + 5)
	if len(app2.starts) != 1 {
		t.Fatalf("post-reset starts = %v, want 1", app2.starts)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("post-reset invariants: %v", err)
	}
	// The pre-crash session stays dead.
	if _, err := submit(sess, RequestSpec{Cluster: "c", N: 1, Duration: 1, Type: request.NonPreempt}); err == nil {
		t.Error("pre-crash session should stay terminated")
	}
}

func TestResetPanicsOnRunningServer(t *testing.T) {
	_, s := newStopTestServer(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Reset on a running server should panic")
		}
	}()
	s.Reset()
}

func TestRequestObserverFinishAndReap(t *testing.T) {
	e, s := newStopTestServer(nil)
	app := &observerApp{}
	sess := connect(s, app)
	id, err := submit(sess, RequestSpec{Cluster: "c", N: 2, Duration: 5, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	if len(app.finished) != 0 {
		t.Fatalf("finished too early: %v", app.finished)
	}
	// Expiry finishes the request; the same round's GC reaps it.
	e.Run(20)
	if len(app.finished) != 1 || app.finished[0] != id {
		t.Fatalf("finished = %v, want [%d]", app.finished, id)
	}
	if len(app.reaped) != 1 || app.reaped[0] != id {
		t.Fatalf("reaped = %v, want [%d]", app.reaped, id)
	}

	// A withdrawn pending request is finished and reaped at once.
	id2, err := submit(sess, RequestSpec{Cluster: "c", N: 99, Duration: 5, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Done(id2, nil); err != nil {
		t.Fatal(err)
	}
	if len(app.finished) != 2 || app.finished[1] != id2 {
		t.Fatalf("finished after withdraw = %v, want [... %d]", app.finished, id2)
	}
	if len(app.reaped) != 2 || app.reaped[1] != id2 {
		t.Fatalf("reaped after withdraw = %v, want [... %d]", app.reaped, id2)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// TestRequestFinishedKeepsNextParentReferable pins the reap condition: a
// finished request with a pending NEXT child is finished but NOT reaped
// until the child no longer needs it.
func TestRequestFinishedKeepsNextParentReferable(t *testing.T) {
	e, s := newStopTestServer(nil)
	app := &observerApp{}
	sess := connect(s, app)
	parent, err := submit(sess, RequestSpec{Cluster: "c", N: 2, Duration: 10, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	// NEXT child scheduled to start at the parent's end.
	child, err := submit(sess, RequestSpec{Cluster: "c", N: 2, Duration: 10, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: parent})
	if err != nil {
		t.Fatal(err)
	}
	// Run past the parent's expiry but before the child finishes.
	e.Run(15)
	foundParent := false
	for _, id := range app.finished {
		if id == parent {
			foundParent = true
		}
	}
	if !foundParent {
		t.Fatalf("parent %d not finished; finished=%v", parent, app.finished)
	}
	for _, id := range app.reaped {
		if id == parent {
			t.Fatalf("parent %d reaped while child %d still ran", parent, child)
		}
	}
	// Once the child is done too, both are reaped.
	e.Run(60)
	got := map[request.ID]bool{}
	for _, id := range app.reaped {
		got[id] = true
	}
	if !got[parent] || !got[child] {
		t.Fatalf("reaped = %v, want both %d and %d", app.reaped, parent, child)
	}
}

func TestStructuredErrors(t *testing.T) {
	e, s := newStopTestServer(nil)
	sess := connect(s, &observerApp{})
	e.Run(1)
	_, err := submit(sess, RequestSpec{Cluster: "c", N: 1, Duration: 1, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: 42})
	var re *RequestError
	if !errors.As(err, &re) || re.ID != 42 || !re.Related {
		t.Fatalf("related error = %#v (%v)", re, err)
	}
	if err.Error() != "rms: related request 42 not found" {
		t.Errorf("message = %q", err.Error())
	}
	if err := sess.Done(42, nil); !errors.As(err, &re) || re.ID != 42 || re.Related {
		t.Fatalf("done error = %#v (%v)", re, err)
	}
	if err := sess.Done(42, nil); err.Error() != "rms: request 42 not found" {
		t.Errorf("message = %q", err.Error())
	}
}
