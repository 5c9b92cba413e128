package federation

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"coormv2/internal/request"
	"coormv2/internal/rms"
)

// stateOf reads a record's placement state; ok is false when the session has
// no record of id.
func stateOf(s *Session, id request.ID) (st placement, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.reqs[id]; e != nil {
		return e.state, true
	}
	return 0, false
}

// spoilSpec makes the recorded spec of id one every shard rejects (a request
// for zero nodes), so the record's next placement fails.
func spoilSpec(s *Session, id request.ID) {
	s.mu.Lock()
	s.reqs[id].spec.N = 0
	s.mu.Unlock()
}

// TestPlaceLifecycle drives Session.place through its three callers — a
// fresh Request, the replay after a shard restart, the re-placement of a
// released hold after its back-off — for a plain request and for the child
// of a cross-shard gang, with the shard accepting and rejecting the
// admission. (A back-off re-placement exists only for a hold.) Every case
// pins the record's state right after the placement, the notifications the
// application saw — a drop is a reap without a finish, an accepted or a
// synchronously refused placement is silent — and the Stats() deltas over
// the whole case, with the federation invariants checked after each step.
func TestPlaceLifecycle(t *testing.T) {
	type counters map[string]int64
	cases := []struct {
		path         string // "fresh", "replay" or "backoff"
		gang, reject bool
		state        placement // right after an accepted placement
		stats        counters  // over the case, including 10 s of settling
	}{
		{"fresh", false, false, placed, counters{}},
		{"fresh", false, true, 0, counters{}},
		{"fresh", true, false, held, counters{"gang_committed": 1}},
		{"fresh", true, true, 0, counters{}},
		{"replay", false, false, placed, counters{"requeued_requests": 1, "replayed_requests": 1}},
		{"replay", false, true, 0, counters{"requeued_requests": 1, "dropped_requests": 1}},
		{"replay", true, false, held, counters{"requeued_requests": 1, "replayed_requests": 1, "gang_retried": 1, "gang_committed": 1}},
		{"replay", true, true, 0, counters{"requeued_requests": 1, "dropped_requests": 1}},
		{"backoff", true, false, held, counters{"gang_retried": 1, "gang_committed": 1}},
		{"backoff", true, true, 0, counters{"gang_retried": 1, "gang_aborted": 1, "dropped_requests": 1}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/gang=%t/reject=%t", tc.path, tc.gang, tc.reject), func(t *testing.T) {
			e, f := newRecoveryFederation(t, RequeueOnCrash)
			app := &observerApp{}
			sess := f.Connect(app)
			// The back-off path needs a child leg that cannot fit: a squatter
			// pins all of cB until it is told to leave.
			var ssess *Session
			var squat request.ID
			if tc.path == "backoff" {
				ssess = f.Connect(&testApp{})
				var err error
				if squat, err = ssess.Request(rms.RequestSpec{Cluster: cB, N: 8, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
					t.Fatal(err)
				}
				e.Run(2)
			}
			spec := rms.RequestSpec{Cluster: cB, N: 2, Duration: 50, Type: request.NonPreempt}
			if tc.gang {
				parent, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 200, Type: request.NonPreempt})
				if err != nil {
					t.Fatal(err)
				}
				spec.RelatedHow, spec.RelatedTo = request.Next, parent
			}
			before := f.Stats()
			mustCheck(t, f)

			// The fresh placement; the other two paths start from an accepted one.
			if tc.path == "fresh" && tc.reject {
				spec.N = 0
			}
			id, err := sess.Request(spec)
			mustCheck(t, f)
			if tc.path == "fresh" && tc.reject {
				if err == nil {
					t.Fatalf("Request(%+v) = %d, want the shard's rejection", spec, id)
				}
				sess.mu.Lock()
				n := len(sess.reqs)
				sess.mu.Unlock()
				if n != btoi(tc.gang) {
					t.Fatalf("a refused request left %d records, want only the parent's", n)
				}
			} else if err != nil {
				t.Fatal(err)
			}

			switch tc.path {
			case "replay":
				if rep := f.CrashShard(1); rep.Requeued != 1 {
					t.Fatalf("crash report = %+v, want the request requeued", rep)
				}
				mustCheck(t, f)
				if st, _ := stateOf(sess, id); st != queued {
					t.Fatalf("state after the crash = %d, want queued", st)
				}
				if tc.reject {
					spoilSpec(sess, id)
				}
				rep := f.RestartShard(1)
				if want := (RestartReport{Shard: 1, Reconnected: 1, Replayed: btoi(!tc.reject), Dropped: btoi(tc.reject)}); rep != want {
					t.Fatalf("restart report = %+v, want %+v", rep, want)
				}
			case "backoff":
				e.Run(4) // first evaluation at t=3 released the hold; back-off ends at t=5
				mustCheck(t, f)
				if st, _ := stateOf(sess, id); st != released {
					t.Fatalf("state in the back-off = %d, want released", st)
				}
				if tc.reject {
					spoilSpec(sess, id)
				} else if err := ssess.Done(squat, nil); err != nil {
					t.Fatal(err)
				}
				e.Run(5.5)
			}
			mustCheck(t, f)

			st, ok := stateOf(sess, id)
			if tc.reject {
				if ok {
					t.Fatalf("refused placement left a record in state %d", st)
				}
			} else if !ok || st != tc.state {
				t.Fatalf("state after the placement = %d (present %t), want %d", st, ok, tc.state)
			}
			sess.mu.Lock()
			reserved := sess.reqs[id] != nil && sess.reqs[id].gang != nil
			sess.mu.Unlock()
			if reserved != (tc.state == held && !tc.reject) {
				t.Fatalf("reservation record present = %t in state %d", reserved, st)
			}

			e.Run(e.Now() + 10)
			mustCheck(t, f)
			if !tc.reject {
				if st, _ := stateOf(sess, id); st != placed {
					t.Fatalf("settled state = %d, want placed", st)
				}
			}
			if slices.Contains(app.finished, id) {
				t.Errorf("request %d was reported finished; it never ran", id)
			}
			// Only a placement refused after Request returned the ID is a drop.
			dropped := tc.reject && tc.path != "fresh"
			if got := slices.Contains(app.reaped, id); got != dropped {
				t.Errorf("reap of %d delivered = %t, want %t (reaped %v)", id, got, dropped, app.reaped)
			}
			after := f.Stats()
			for k := range after {
				if got := after[k] - before[k]; got != tc.stats[k] {
					t.Errorf("%s moved by %d, want %d", k, got, tc.stats[k])
				}
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDoneOnReleasedHoldWithdraws is the regression for Done on a gang child
// in its retry back-off (the TestGangAbortsWhenChildCannotFit fixture, one
// second after the first release): the hold is on no shard, so the done() is
// a federation-side withdraw — finish + reap, like Done on a queued request —
// and not a "request not found" from a shard that was never asked to keep
// it; the child is not re-placed afterwards.
func TestDoneOnReleasedHoldWithdraws(t *testing.T) {
	e, f := newRecoveryFederation(t, KillOnCrash)
	ssess := f.Connect(&testApp{})
	if _, err := ssess.Request(rms.RequestSpec{Cluster: cB, N: 8, Duration: math.Inf(1), Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	e.Run(2)
	app := &observerApp{}
	sess := f.Connect(app)
	parent, err := sess.Request(rms.RequestSpec{Cluster: cA, N: 2, Duration: 200, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	child, err := sess.Request(rms.RequestSpec{Cluster: cB, N: 2, Duration: 5, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: parent})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(4) // released at t=3, re-placement due at t=5
	if st, _ := stateOf(sess, child); st != released {
		t.Fatalf("child state = %d, want released", st)
	}
	before := f.Stats()
	if err := sess.Done(child, nil); err != nil {
		t.Fatalf("Done on a released hold = %v, want a clean withdraw", err)
	}
	mustCheck(t, f)
	if !slices.Equal(app.finished, []request.ID{child}) || !slices.Equal(app.reaped, []request.ID{child}) {
		t.Errorf("withdraw delivered finished %v, reaped %v; want %d in both", app.finished, app.reaped, child)
	}
	e.Run(120)
	mustCheck(t, f)
	if _, ok := stateOf(sess, child); ok {
		t.Errorf("withdrawn child %d is back in the table", child)
	}
	after := f.Stats()
	for k := range after {
		want := int64(0)
		if k == "dropped_requests" {
			want = 1
		}
		if got := after[k] - before[k]; got != want {
			t.Errorf("%s moved by %d after the withdraw, want %d", k, got, want)
		}
	}
	if err := sess.Done(child, nil); err == nil {
		t.Error("second Done on the withdrawn child succeeded")
	}
}
