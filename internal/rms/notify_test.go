package rms

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// reentrantApp calls back into the server from its handlers while a batch
// of notifications is being delivered: OnStart ends the started request and
// submits the next one (unless the test's own goroutines end requests:
// driven), and OnStart and OnViews submit a request and withdraw it at once,
// which queues two notifications (finished, then reaped) from inside the
// delivery. It records what arrives, flags what arrives twice or out of
// order, and signals every start on startedCh.
type reentrantApp struct {
	t      *testing.T
	driven bool

	mu        sync.Mutex
	sess      *Session
	budget    int // requests still to submit
	started   map[request.ID]int
	finished  map[request.ID]int
	reaped    map[request.ID]int
	views     int
	np, p     view.View // the last push
	startedCh chan struct{}
}

func newReentrantApp(t *testing.T, budget int) *reentrantApp {
	return &reentrantApp{t: t, budget: budget, started: map[request.ID]int{},
		finished: map[request.ID]int{}, reaped: map[request.ID]int{}, startedCh: make(chan struct{}, 1)}
}

var reentrantSpec = RequestSpec{Cluster: c0, N: 1, Duration: 5, Type: request.NonPreempt}

// take draws one request from the budget.
func (a *reentrantApp) take() (*Session, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sess == nil || a.budget == 0 {
		return nil, false
	}
	a.budget--
	return a.sess, true
}

// submitAndWithdraw submits a request and withdraws it before it can start.
func (a *reentrantApp) submitAndWithdraw() {
	if sess, ok := a.take(); ok {
		id, err := submit(sess, reentrantSpec)
		if err != nil {
			a.t.Error(err)
			return
		}
		if err := sess.Done(id, nil); err != nil {
			a.t.Error(err)
		}
	}
}

func (a *reentrantApp) OnStart(id request.ID, _ []int) {
	a.mu.Lock()
	a.started[id]++
	if a.started[id] > 1 || a.finished[id] > 0 {
		a.t.Errorf("request %d: start number %d, after %d finishes", id, a.started[id], a.finished[id])
	}
	sess := a.sess
	a.mu.Unlock()
	select {
	case a.startedCh <- struct{}{}:
	default:
	}
	if !a.driven {
		if err := sess.Done(id, nil); err != nil {
			a.t.Error(err)
		}
		if sess, ok := a.take(); ok {
			if _, err := submit(sess, reentrantSpec); err != nil {
				a.t.Error(err)
			}
		}
	}
	a.submitAndWithdraw()
}

// awaitStart waits up to d for request id's start.
func (a *reentrantApp) awaitStart(id request.ID, d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		a.mu.Lock()
		started := a.started[id] > 0
		a.mu.Unlock()
		if started {
			return
		}
		select {
		case <-a.startedCh:
		case <-timer.C:
			return
		}
	}
}

func (a *reentrantApp) OnViews(np, p view.View) {
	a.mu.Lock()
	pv := patch(a.p.Clone(), p)
	if a.views > 0 && np.Equal(a.np) && pv.Equal(a.p) {
		a.t.Errorf("push %d repeats the last one", a.views+1)
	}
	a.views++
	a.np, a.p = np, pv
	a.mu.Unlock()
	a.submitAndWithdraw()
}

func (a *reentrantApp) OnKill(reason string) { a.t.Errorf("killed: %s", reason) }

func (a *reentrantApp) OnRequestFinished(id request.ID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.finished[id]++
	if a.finished[id] > 1 || a.reaped[id] > 0 {
		a.t.Errorf("request %d: finish number %d, after %d reaps", id, a.finished[id], a.reaped[id])
	}
}

func (a *reentrantApp) OnRequestsReaped(ids []request.ID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, id := range ids {
		a.reaped[id]++
		if a.reaped[id] > 1 || a.finished[id] != 1 || i > 0 && ids[i-1] >= id {
			a.t.Errorf("request %d: reap number %d, after %d finishes, in %v", id, a.reaped[id], a.finished[id], ids)
		}
	}
}

// TestNotificationsReentrantInOrder: handlers that call Request and Done
// while a batch is being delivered get every notification once and in queue
// order — a start before its finish, a finish before its reap, no push
// twice, and as the last push the views the server last queued — under the
// simulated clock and under the real one, where the round goroutine's
// timers and the handlers' calls all reach the one drainer.
func TestNotificationsReentrantInOrder(t *testing.T) {
	const apps, budget = 6, 40
	run := func(t *testing.T, clk clock.Clock, drain func(done func() bool)) {
		s := NewServer(Config{
			Clusters:        map[view.ClusterID]int{c0: 4},
			ReschedInterval: 1e-3,
			Clock:           clk,
		})
		defer s.Stop()
		var hs []*reentrantApp
		var sessions []*Session
		for i := 0; i < apps; i++ {
			h := newReentrantApp(t, budget)
			sess := connect(s, h)
			h.mu.Lock()
			h.sess = sess
			h.mu.Unlock()
			hs, sessions = append(hs, h), append(sessions, sess)
		}
		for _, h := range hs {
			if sess, ok := h.take(); ok {
				if _, err := submit(sess, reentrantSpec); err != nil {
					t.Fatal(err)
				}
			}
		}
		settled := func() bool {
			for _, h := range hs {
				h.mu.Lock()
				open := h.budget > 0 || len(h.finished) != budget || len(h.reaped) != budget
				h.mu.Unlock()
				if open {
					return false
				}
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			return !s.schedPending && !s.draining && len(s.pending) == 0
		}
		drain(settled)
		if !settled() {
			t.Fatal("the run did not settle")
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, h := range hs {
			h.mu.Lock()
			for id, n := range h.finished {
				if n != 1 || h.reaped[id] != 1 || h.started[id] > 1 {
					t.Errorf("app %d request %d: %d starts, %d finishes, %d reaps", i, id, h.started[id], n, h.reaped[id])
				}
			}
			if len(h.started) == 0 {
				t.Errorf("app %d: no request started", i)
			}
			sess := sessions[i]
			if _, pv := sess.app.Views(); h.views == 0 || !h.np.Equal(sess.np.v) || !h.p.Equal(pv) {
				t.Errorf("app %d: %d pushes, the last np and the patched p\n np %v\n p  %v\nthe server last queued np, and the scheduler's p\n np %v\n p  %v",
					i, h.views, h.np, h.p, sess.np.v, pv)
			}
			h.mu.Unlock()
		}
	}
	t.Run("SimClock", func(t *testing.T) {
		e := sim.NewEngine()
		run(t, clock.SimClock{E: e}, func(func() bool) { e.RunAll() })
	})
	t.Run("RealClock", func(t *testing.T) {
		run(t, clock.NewRealClock(), func(settled func() bool) {
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline) && !settled(); {
				time.Sleep(time.Millisecond)
			}
		})
	})
}

// awaitServerStart spins until the server has started request id, but for
// at most a second: a done() right after it races the start's delivery.
func awaitServerStart(sess *Session, id request.ID) {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if info, err := sess.ScheduleInfo(id); err != nil || info.Started {
			return
		}
	}
}

// TestRealClockNotificationOrder runs request/done pairs from one goroutine
// per application against a server on clock.RealClock, every other pair
// waiting a moment for its start, while the handlers re-enter the server to
// submit and withdraw more. A round's starts and a done()'s finish are then
// queued by different goroutines, and only one of them may deliver: each
// session must hear a start before its finish and a finish before its reap,
// and nothing twice.
func TestRealClockNotificationOrder(t *testing.T) {
	const apps, pairs, budget = 4, 300, 300
	s := NewServer(Config{
		Clusters:        map[view.ClusterID]int{c0: 8},
		ReschedInterval: 2e-4,
		Clock:           clock.NewRealClock(),
	})
	defer s.Stop()
	hs := make([]*reentrantApp, apps)
	var wg sync.WaitGroup
	for i := range hs {
		h := newReentrantApp(t, budget)
		h.driven = true
		sess := connect(s, h)
		h.mu.Lock()
		h.sess = sess
		h.mu.Unlock()
		hs[i] = h
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := RequestSpec{Cluster: c0, N: 1, Duration: math.Inf(1), Type: request.NonPreempt}
			for j := 0; j < pairs; j++ {
				id, err := submit(sess, spec)
				if err != nil {
					t.Error(err)
					return
				}
				if j%2 == 0 {
					h.awaitStart(id, 300*time.Microsecond)
				} else {
					awaitServerStart(sess, id)
				}
				if err := sess.Done(id, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	submitted := make([]int, apps)
	for i, h := range hs {
		h.mu.Lock()
		submitted[i] = pairs + budget - h.budget
		h.budget = 0
		h.mu.Unlock()
	}
	// CheckInvariants waits for the deliveries in flight, after which no
	// handler submits; a last round then reaps every request.
	for _, step := range []func(){func() {}, s.ScheduleNow} {
		step()
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range hs {
		h.mu.Lock()
		if len(h.reaped) != submitted[i] {
			t.Errorf("app %d: %d requests reaped, want %d", i, len(h.reaped), submitted[i])
		}
		h.mu.Unlock()
	}
}
