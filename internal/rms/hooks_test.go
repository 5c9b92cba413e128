package rms

import (
	"errors"
	"sync"
	"testing"

	"coormv2/internal/core"
	"coormv2/internal/request"
)

// The server admits sessions and requests only under IDs its caller chose
// (internal/federation owns both ID spaces). connect and submit draw them
// for the tests in this package: application IDs from one counter per
// server, from 1, and request IDs from one counter per scheduler (a Reset
// restarts it, as it restarts the server's admission sequence) kept at or
// past that sequence, so a test that never picks an ID sees 1, 2, 3, … as a
// federation would give. Both draw under one mutex and hold no lock while
// they admit: a handler may re-enter submit from the delivery that admission
// runs, on the same goroutine or another one.
var appIDs struct {
	sync.Mutex
	next map[*Server]int
	req  map[*core.Scheduler]request.ID
}

// connect registers h under the server's next application ID. It panics
// where ConnectID errors (a stopped server).
func connect(s *Server, h AppHandler, opts ...ConnectOption) *Session {
	appIDs.Lock()
	if appIDs.next == nil {
		appIDs.next = make(map[*Server]int)
	}
	appIDs.next[s]++
	id := appIDs.next[s]
	appIDs.Unlock()
	sess, err := s.ConnectID(h, id, opts...)
	if err != nil {
		panic(err)
	}
	return sess
}

// submit is request() under the next ID of the server's counter: the
// server's next admission sequence number, unless another submit drew that
// one and has not admitted it yet.
func submit(sess *Session, spec RequestSpec) (request.ID, error) {
	appIDs.Lock()
	if appIDs.req == nil {
		appIDs.req = make(map[*core.Scheduler]request.ID)
	}
	sess.s.mu.Lock()
	sched := sess.s.sched
	id := max(appIDs.req[sched]+1, sess.s.nextReq)
	sess.s.mu.Unlock()
	appIDs.req[sched] = id
	appIDs.Unlock()
	if err := sess.RequestID(spec, id, nil); err != nil {
		return 0, err
	}
	return id, nil
}

// The hooks below exist for internal/federation: ConnectID registers a
// session under an externally assigned application ID, RequestID admits a
// request under an externally assigned request ID and runs its observe hook
// while the server lock is still held, and ScheduleNow forces a synchronous
// scheduling round.

func TestConnectIDAssignsAndCollides(t *testing.T) {
	e, s := newTestServer(10)
	app := &testApp{}
	sess, err := s.ConnectID(app, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sess.AppID() != 7 {
		t.Errorf("AppID = %d, want 7", sess.AppID())
	}
	if _, err := s.ConnectID(&testApp{}, 7); err == nil {
		t.Error("duplicate ID should error")
	}
	if _, err := s.ConnectID(&testApp{}, 0); err == nil {
		t.Error("non-positive ID should error")
	}
	e.RunAll()
}

func TestConnectIDSessionIsFunctional(t *testing.T) {
	e, s := newTestServer(10)
	app := &testApp{}
	sess, err := s.ConnectID(app, 3)
	if err != nil {
		t.Fatal(err)
	}
	app.sess = sess
	if _, err := submit(sess, RequestSpec{Cluster: c0, N: 2, Duration: 50, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if len(app.starts) != 1 {
		t.Fatalf("starts = %v, want one", app.starts)
	}
}

func TestRequestObservedSeesIDBeforeStart(t *testing.T) {
	e, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)

	observed, started := false, false
	app.onStart = func(id request.ID, _ []int) {
		started = true
		if !observed {
			t.Error("OnStart fired before observe")
		}
		if id != 41 {
			t.Errorf("started %d, want the caller's ID 41", id)
		}
	}
	spec := RequestSpec{Cluster: c0, N: 1, Duration: 10, Type: request.NonPreempt}
	if err := app.sess.RequestID(spec, 41, func() { observed = true }); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if !started {
		t.Fatal("request never started")
	}
}

// A caller-chosen ID must be positive and unused in the session; the IDs the
// server draws itself stay ahead of it, and a related request names its
// parent by that ID.
func TestRequestIDCollidesAndAdvancesSequence(t *testing.T) {
	e, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)
	spec := RequestSpec{Cluster: c0, N: 1, Duration: 10, Type: request.NonPreempt}
	if err := app.sess.RequestID(spec, 0, nil); err == nil {
		t.Error("non-positive ID should error")
	}
	if err := app.sess.RequestID(spec, 7, nil); err != nil {
		t.Fatal(err)
	}
	var re *RequestError
	if err := app.sess.RequestID(spec, 7, nil); !errors.As(err, &re) || re.ID != 7 || re.Reason != ReasonInUse {
		t.Errorf("duplicate ID = %v, want a RequestError{7, in use}", err)
	}
	if err := app.sess.HoldID(spec, 7, 0, nil); !errors.As(err, &re) || re.Reason != ReasonInUse {
		t.Errorf("hold under a used ID = %v, want in use", err)
	}
	next, err := submit(app.sess, RequestSpec{Cluster: c0, N: 1, Duration: 10, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: 7})
	if err != nil {
		t.Fatal(err)
	}
	if next != 8 {
		t.Errorf("next drawn ID = %d, want 8", next)
	}
	if got := app.sess.RequestIDs(); len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Errorf("RequestIDs = %v, want [7 8]", got)
	}
	e.RunAll()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestObservedNotCalledOnError(t *testing.T) {
	e, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)
	e.RunAll()
	called := false
	err := app.sess.RequestID(
		RequestSpec{Cluster: c0, N: 0, Duration: 1, Type: request.NonPreempt},
		5, func() { called = true },
	)
	if err == nil {
		t.Fatal("invalid request should error")
	}
	if called {
		t.Error("observe must not run on a failed request")
	}
}

func TestScheduleNowRunsARound(t *testing.T) {
	_, s := newTestServer(10)
	app := &testApp{}
	app.sess = connect(s, app)
	if _, err := submit(app.sess, RequestSpec{Cluster: c0, N: 4, Duration: 100, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	// No engine run: drive the round synchronously.
	s.ScheduleNow()
	if len(app.starts) != 1 {
		t.Fatalf("starts after ScheduleNow = %v, want one", app.starts)
	}
	if len(app.views) == 0 {
		t.Error("no views pushed by ScheduleNow")
	}
}
