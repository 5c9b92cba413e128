package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"coormv2/internal/request"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// The differential harness drives two schedulers — one incremental, one
// with SetIncremental(false) — through the identical randomized churn
// sequence and asserts byte-identical outcomes after every round: views,
// start lists, and every scheduler-owned request attribute. This pins the
// incremental caches to full recomputation under request add/withdraw,
// start, finish, duration shrink (done), GC, app connect/disconnect and
// cluster attach/detach.

// diffOp is one abstract mutation, expressed in IDs so it can be applied to
// both mirrored schedulers.
type diffOp struct {
	kind    string
	app     int
	req     request.ID
	parent  request.ID
	cluster view.ClusterID
	n       int
	dur     float64
	typ     request.Type
	how     request.Relation
	nb      float64 // NotBefore floor for hold/setnb ops
}

// diffMirror is one scheduler with ID-indexed request bookkeeping. onRound,
// when set, runs before each churn round's Schedule calls (policy swaps).
type diffMirror struct {
	s       *Scheduler
	reqs    map[request.ID]*request.Request
	onRound func(round int)
}

func newDiffMirror(clusters map[view.ClusterID]int, incremental bool) *diffMirror {
	s := NewScheduler(clusters)
	s.SetIncremental(incremental)
	return &diffMirror{s: s, reqs: make(map[request.ID]*request.Request)}
}

func (m *diffMirror) apply(t *testing.T, op diffOp, now float64) {
	t.Helper()
	switch op.kind {
	case "connect":
		m.s.AddApp(op.app, now)
	case "disconnect":
		if a := m.s.RemoveApp(op.app); a != nil {
			for _, r := range a.Requests() {
				delete(m.reqs, r.ID)
			}
		}
	case "request":
		a := m.s.App(op.app)
		var parent *request.Request
		if op.how != request.Free {
			parent = m.reqs[op.parent]
		}
		r := request.New(op.req, op.app, op.cluster, op.n, op.dur, op.typ, op.how, parent)
		a.SetFor(op.typ).Add(r)
		m.reqs[r.ID] = r
		m.s.MarkAppDirty(op.app)
	case "withdraw":
		r := m.reqs[op.req]
		m.s.App(op.app).SetFor(r.Type).Remove(r)
		delete(m.reqs, op.req)
		m.s.MarkAppDirty(op.app)
	case "finish":
		r := m.reqs[op.req]
		if r.Started() && now > r.StartedAt && now-r.StartedAt < r.Duration {
			r.Duration = now - r.StartedAt // done() shrinks the allocation
		}
		r.Finished = true
		m.s.MarkAppDirty(op.app)
	case "gc":
		a := m.s.App(op.app)
		collect := func(r *request.Request) { delete(m.reqs, r.ID) }
		a.PA.GC(now, collect)
		a.NP.GC(now, collect)
		a.P.GC(now, collect)
		m.s.MarkAppDirty(op.app)
	case "hold":
		// Mirrors rms.Session.HoldID: a pending request that reserves CBF
		// capacity from a NotBefore floor but is never started.
		a := m.s.App(op.app)
		r := request.New(op.req, op.app, op.cluster, op.n, op.dur, op.typ, request.Free, nil)
		r.Held = true
		if op.nb > 0 {
			r.NotBefore = op.nb
		}
		a.SetFor(op.typ).Add(r)
		m.reqs[r.ID] = r
		m.s.MarkAppDirty(op.app)
	case "commit":
		// Mirrors rms.CommitHold: the hold becomes an ordinary pending
		// request, keeping its NotBefore floor.
		m.reqs[op.req].Held = false
		m.s.MarkAppDirty(op.app)
	case "setnb":
		// Mirrors rms.SetNotBefore during gang alignment.
		m.reqs[op.req].NotBefore = op.nb
		m.s.MarkAppDirty(op.app)
	case "addcluster":
		m.s.AddCluster(op.cluster, op.n)
	default:
		t.Fatalf("unknown op %q", op.kind)
	}
}

// startArrived mirrors the RMS start path: every ToStart request begins now.
func (m *diffMirror) startArrived(out *gathered, now float64) {
	for _, r := range out.ToStart {
		r.StartedAt = now
		m.s.MarkAppDirty(r.AppID)
	}
}

func viewsEqual(a, b map[int]view.View) error {
	if len(a) != len(b) {
		return fmt.Errorf("view count %d != %d", len(a), len(b))
	}
	for id, v := range a {
		w, ok := b[id]
		if !ok {
			return fmt.Errorf("app %d missing", id)
		}
		if !v.Equal(w) {
			return fmt.Errorf("app %d view %v != %v", id, v, w)
		}
	}
	return nil
}

func (m *diffMirror) compareTo(o *diffMirror, outA, outB *gathered) error {
	if err := viewsEqual(outA.NonPreemptViews, outB.NonPreemptViews); err != nil {
		return fmt.Errorf("non-preemptive: %w", err)
	}
	if err := viewsEqual(outA.PreemptViews, outB.PreemptViews); err != nil {
		return fmt.Errorf("preemptive: %w", err)
	}
	if len(outA.ToStart) != len(outB.ToStart) {
		return fmt.Errorf("ToStart %d != %d", len(outA.ToStart), len(outB.ToStart))
	}
	for i := range outA.ToStart {
		if outA.ToStart[i].ID != outB.ToStart[i].ID {
			return fmt.Errorf("ToStart[%d] = %d != %d", i, outA.ToStart[i].ID, outB.ToStart[i].ID)
		}
		if outA.ToStart[i].Held {
			return fmt.Errorf("ToStart[%d] = %d is a hold — holds must never start", i, outA.ToStart[i].ID)
		}
	}
	if len(m.reqs) != len(o.reqs) {
		return fmt.Errorf("request count %d != %d", len(m.reqs), len(o.reqs))
	}
	for id, r := range m.reqs {
		q, ok := o.reqs[id]
		if !ok {
			return fmt.Errorf("request %d missing", id)
		}
		if r.ScheduledAt != q.ScheduledAt && !(math.IsInf(r.ScheduledAt, 1) && math.IsInf(q.ScheduledAt, 1)) {
			return fmt.Errorf("request %d ScheduledAt %v != %v", id, r.ScheduledAt, q.ScheduledAt)
		}
		if r.NAlloc != q.NAlloc {
			return fmt.Errorf("request %d NAlloc %d != %d", id, r.NAlloc, q.NAlloc)
		}
		if r.Fixed != q.Fixed {
			return fmt.Errorf("request %d Fixed %v != %v", id, r.Fixed, q.Fixed)
		}
		if r.Wrapped != q.Wrapped {
			return fmt.Errorf("request %d Wrapped %v != %v", id, r.Wrapped, q.Wrapped)
		}
	}
	return nil
}

// TestIncrementalMatchesFullRecompute is the randomized-churn differential:
// same op sequence, same clock, byte-identical outputs every round.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		clusters := map[view.ClusterID]int{"ca": 16, "cb": 8, "cc": 12}
		runDiffChurn(t, seed, newDiffMirror(clusters, true), newDiffMirror(clusters, false))
	}
}

// TestIncrementalMatchesFullRecomputeDeepQueue is the differential in trace
// replay's shape, where queued steps are reused until their start and
// applications connect and leave between rounds without flushing a cache:
// a deep queue of FREE ¬P jobs, request-less applications coming and going,
// and jobs torn down while they hold their allocation — under FIFO and both
// reordering policies.
func TestIncrementalMatchesFullRecomputeDeepQueue(t *testing.T) {
	for p := 0; p < 3; p++ {
		var torn, deep int
		var reused int64
		for seed := int64(1); seed <= 15; seed++ {
			clusters := map[view.ClusterID]int{"ca": 16, "cb": 8, "cc": 12}
			inc, full := newDiffMirror(clusters, true), newDiffMirror(clusters, false)
			if p > 0 {
				policy := shiftingPolicy{flipAdmit: p == 2}
				inc.s.SetSchedulingPolicy(policy)
				full.s.SetSchedulingPolicy(policy)
			}
			c := runDiffShaped(t, seed, churnShape{queue: true}, inc, full)
			torn += c.runningTorn
			deep = max(deep, c.maxQueued)
			reused += inc.s.Stats().CBFReused
		}
		if torn < 500 || deep < 15 || reused == 0 {
			t.Errorf("policy %d: %d running jobs torn down, at most %d jobs queued, %d CBF steps reused: want at least 500, 15 and 1",
				p, torn, deep, reused)
		}
	}
}

// TestIncrementalMatchesFullAtBreakpoints is the differential under the two
// clock shapes the preemptive caches key on: a round that repeats the
// previous instant, which must hand out the cut fragments it cut before,
// and a round that lands exactly on a started preemptible request's end, a
// breakpoint where every cut fragment that drops there must be cut afresh.
func TestIncrementalMatchesFullAtBreakpoints(t *testing.T) {
	landed := 0
	for seed := int64(1); seed <= 25; seed++ {
		clusters := map[view.ClusterID]int{"ca": 16, "cb": 8, "cc": 12}
		landed += runDiffShaped(t, seed, churnShape{same: 64, exact: 96},
			newDiffMirror(clusters, true), newDiffMirror(clusters, false)).landed
	}
	if landed < 100 {
		t.Errorf("%d rounds landed on a started preemptible request's end, want at least 100", landed)
	}
}

// FuzzIncrementalSchedule drives the incremental-vs-full differential from
// fuzz bytes: the churn seed, which op kinds are left out, how often a round
// repeats the previous instant or lands on a started preemptible request's
// end, the scheduling policy (FIFO, a reordering one, a reordering one that
// also refuses admissions) and whether the run has trace replay's deep queue.
func FuzzIncrementalSchedule(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(64), uint8(96), uint8(0), false)
	f.Add(int64(7), uint16(0x0203), uint8(128), uint8(128), uint8(2), false)
	f.Add(int64(3), uint16(0), uint8(32), uint8(32), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, skip uint16, same, exact, policy uint8, queue bool) {
		clusters := map[view.ClusterID]int{"ca": 16, "cb": 8, "cc": 12}
		inc, full := newDiffMirror(clusters, true), newDiffMirror(clusters, false)
		if policy%3 > 0 {
			p := shiftingPolicy{flipAdmit: policy%3 == 2}
			inc.s.SetSchedulingPolicy(p)
			full.s.SetSchedulingPolicy(p)
		}
		runDiffShaped(t, seed, churnShape{skip: skip, same: same, exact: exact, queue: queue}, inc, full)
	})
}

// churnShape is what the churn sequence draws besides its seed. The zero
// shape is runDiffChurn's: every op kind, and a random clock step per round.
type churnShape struct {
	skip uint16 // op kinds never applied: bit k is case k of the op draw
	// Per round, same in 256 repeat the previous instant and the next exact
	// in 256 land exactly on the nearest end of a started preemptible
	// request still ahead (a random step when there is none).
	same, exact uint8
	// queue adds trace replay's shape to every round: request-less
	// applications connecting and leaving, jobs arriving as applications of
	// their own with one FREE ¬P (or pre-allocation) request each, faster
	// than the clusters drain them, and jobs torn down while they hold their
	// allocation — at its end, or killed before it.
	queue bool
}

// churnCounts is what a churn run reports besides its verdict.
type churnCounts struct {
	landed      int // rounds that landed on a started preemptible request's end
	runningTorn int // teardowns of jobs holding a started allocation
	maxQueued   int // the most jobs pending at one round
}

// next returns the instant of the round after now and whether it is a
// started preemptible request's end. The zero shape draws exactly what the
// original sequence drew.
func (sh churnShape) next(rng *rand.Rand, now float64, m *diffMirror) (float64, bool) {
	if sh.same > 0 || sh.exact > 0 {
		x := rng.Intn(256)
		if x < int(sh.same) {
			return now, false
		}
		if x < int(sh.same)+int(sh.exact) {
			end := math.Inf(1)
			for _, r := range m.reqs {
				if r.Type == request.Preempt && r.Started() && !r.Finished && r.End() > now {
					end = math.Min(end, r.End())
				}
			}
			if !math.IsInf(end, 1) {
				return end, true
			}
		}
	}
	return now + rng.Float64()*15, false
}

// runDiffChurn drives the two mirrored schedulers through the seeded
// randomized churn sequence (120 rounds of connect/disconnect/request/
// withdraw/finish/gc/hold/commit/setnb/addcluster ops) and asserts
// byte-identical outcomes after every Schedule call. Each round has the rms
// shape: Schedule, start what it says, Schedule again at the same instant.
// It is shared by the incremental-vs-full differential above and the
// policy-path differential in policy_test.go.
func runDiffChurn(t *testing.T, seed int64, inc, full *diffMirror) {
	t.Helper()
	runDiffShaped(t, seed, churnShape{}, inc, full)
}

// runDiffShaped is runDiffChurn with a churn shape.
func runDiffShaped(t *testing.T, seed int64, shape churnShape, inc, full *diffMirror) (counts churnCounts) {
	t.Helper()
	clusterIDs := []view.ClusterID{"ca", "cb", "cc"}
	rng := rand.New(rand.NewSource(seed))
	type job struct {
		app int
		req request.ID
	}
	var jobs []job
	var idle []int // request-less applications of the queue shape
	{
		var nextReq request.ID = 1
		nextApp := 1
		now := 0.0
		apply := func(op diffOp) {
			inc.apply(t, op, now)
			full.apply(t, op, now)
		}
		// Start with a few applications.
		for i := 0; i < 3; i++ {
			apply(diffOp{kind: "connect", app: nextApp})
			nextApp++
		}

		for round := 0; round < 120; round++ {
			var onEnd bool
			if now, onEnd = shape.next(rng, now, inc); onEnd {
				counts.landed++
			}
			// 1–3 mutations per round, so rounds see mixed dirt.
			for k := 0; k < 1+rng.Intn(3); k++ {
				appIDs := []int{}
				for _, a := range inc.s.Apps() {
					appIDs = append(appIDs, a.ID)
				}
				kind := rng.Intn(13)
				if shape.skip&(1<<kind) != 0 {
					continue
				}
				switch kind {
				case 0:
					if len(appIDs) < 6 {
						apply(diffOp{kind: "connect", app: nextApp})
						nextApp++
					}
				case 1:
					if len(appIDs) > 2 {
						apply(diffOp{kind: "disconnect", app: appIDs[rng.Intn(len(appIDs))]})
					}
				case 2, 3, 4, 5:
					if len(appIDs) == 0 {
						continue
					}
					app := appIDs[rng.Intn(len(appIDs))]
					op := diffOp{
						kind: "request", app: app, req: nextReq,
						cluster: clusterIDs[rng.Intn(len(clusterIDs))],
						n:       1 + rng.Intn(6),
						dur:     20 + rng.Float64()*200,
					}
					switch rng.Intn(3) {
					case 0:
						op.typ = request.PreAlloc
					case 1:
						op.typ = request.NonPreempt
					default:
						op.typ = request.Preempt
						if rng.Intn(2) == 0 {
							op.dur = math.Inf(1)
						}
					}
					// Sometimes chain to an existing unfinished request of
					// the same app (same-cluster, like the RMS enforces).
					if rng.Intn(3) == 0 {
						a := inc.s.App(app)
						var cands []*request.Request
						for _, r := range a.Requests() {
							if !r.Finished && r.Cluster == op.cluster &&
								!(op.typ == request.PreAlloc && r.Type != request.PreAlloc) {
								cands = append(cands, r)
							}
						}
						if len(cands) > 0 {
							p := cands[rng.Intn(len(cands))]
							op.parent = p.ID
							if rng.Intn(2) == 0 {
								op.how = request.Coalloc
							} else {
								op.how = request.Next
							}
						}
					}
					apply(op)
					nextReq++
				case 6, 7:
					// Finish a random started, unfinished request.
					var cands []*request.Request
					for _, r := range inc.reqs {
						if r.Started() && !r.Finished {
							cands = append(cands, r)
						}
					}
					if len(cands) > 0 {
						r := cands[rng.Intn(len(cands))]
						apply(diffOp{kind: "finish", app: r.AppID, req: r.ID})
					}
				case 8:
					// Withdraw a random pending request with no children.
					var cands []*request.Request
					for _, r := range inc.reqs {
						if r.Started() || r.Finished {
							continue
						}
						child := false
						for _, q := range inc.reqs {
							if q.RelatedTo == r {
								child = true
								break
							}
						}
						if !child {
							cands = append(cands, r)
						}
					}
					if len(cands) > 0 {
						r := cands[rng.Intn(len(cands))]
						apply(diffOp{kind: "withdraw", app: r.AppID, req: r.ID})
					}
				case 9:
					if len(appIDs) > 0 {
						apply(diffOp{kind: "gc", app: appIDs[rng.Intn(len(appIDs))]})
					}
				case 10:
					// Place a reservation hold, sometimes with a future
					// NotBefore floor (the gang coordinator's alignment).
					if len(appIDs) == 0 {
						continue
					}
					op := diffOp{
						kind: "hold", app: appIDs[rng.Intn(len(appIDs))], req: nextReq,
						cluster: clusterIDs[rng.Intn(len(clusterIDs))],
						n:       1 + rng.Intn(6),
						dur:     20 + rng.Float64()*200,
						typ:     request.NonPreempt,
					}
					if rng.Intn(2) == 0 {
						op.typ = request.Preempt
					}
					if rng.Intn(2) == 0 {
						op.nb = now + rng.Float64()*100
					}
					apply(op)
					nextReq++
				case 11:
					// Commit, re-floor, or release a random live hold.
					var cands []*request.Request
					for _, r := range inc.reqs {
						if r.Held {
							cands = append(cands, r)
						}
					}
					if len(cands) == 0 {
						continue
					}
					r := cands[rng.Intn(len(cands))]
					switch rng.Intn(3) {
					case 0:
						apply(diffOp{kind: "commit", app: r.AppID, req: r.ID})
					case 1:
						apply(diffOp{kind: "setnb", app: r.AppID, req: r.ID, nb: now + rng.Float64()*150})
					default:
						apply(diffOp{kind: "withdraw", app: r.AppID, req: r.ID})
					}
				case 12:
					// Raise the floor of a random pending (unstarted,
					// unheld) FREE request — SetNotBefore is legal on those
					// too, and refuses a relation child.
					var cands []*request.Request
					for _, r := range inc.reqs {
						if !r.Started() && !r.Finished && !r.Held && r.RelatedHow == request.Free {
							cands = append(cands, r)
						}
					}
					if len(cands) > 0 {
						r := cands[rng.Intn(len(cands))]
						apply(diffOp{kind: "setnb", app: r.AppID, req: r.ID, nb: now + rng.Float64()*80})
					}
				}
			}
			if round == 60 && seed%3 == 0 {
				apply(diffOp{kind: "addcluster", cluster: "cd", n: 10})
				clusterIDs = []view.ClusterID{"ca", "cb", "cc", "cd"}
			}
			if shape.queue {
				// Request-less sessions come and go (a federated session
				// attaches to every shard).
				for k := rng.Intn(3); k > 0; k-- {
					apply(diffOp{kind: "connect", app: nextApp})
					idle = append(idle, nextApp)
					nextApp++
				}
				if len(idle) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(idle))
					apply(diffOp{kind: "disconnect", app: idle[k]})
					idle = append(idle[:k], idle[k+1:]...)
				}
				// Jobs arrive, each an application with one FREE ¬P request,
				// or a pre-allocation one time in four.
				for k := rng.Intn(3); k > 0; k-- {
					typ := request.NonPreempt
					if rng.Intn(4) == 0 {
						typ = request.PreAlloc
					}
					apply(diffOp{kind: "connect", app: nextApp})
					apply(diffOp{
						kind: "request", app: nextApp, req: nextReq, typ: typ,
						cluster: clusterIDs[rng.Intn(len(clusterIDs))],
						n:       1 + rng.Intn(6),
						dur:     20 + rng.Float64()*200,
					})
					jobs = append(jobs, job{nextApp, nextReq})
					nextApp++
					nextReq++
				}
				// A job is torn down at its end, or killed while it runs.
				kept, queued := jobs[:0], 0
				for _, j := range jobs {
					if inc.s.App(j.app) == nil {
						continue // the random ops disconnected it
					}
					r := inc.reqs[j.req]
					switch {
					case r != nil && r.Started() && (r.End() <= now || rng.Intn(8) == 0):
						apply(diffOp{kind: "disconnect", app: j.app})
						counts.runningTorn++
						continue
					case r != nil && !r.Started():
						queued++
					}
					kept = append(kept, j)
				}
				jobs = kept
				counts.maxQueued = max(counts.maxQueued, queued)
			}

			for _, m := range []*diffMirror{inc, full} {
				if m.onRound != nil {
					m.onRound(round)
				}
			}
			outA := gather(inc.s, inc.s.Schedule(now))
			outB := gather(full.s, full.s.Schedule(now))
			if err := inc.compareTo(full, outA, outB); err != nil {
				t.Fatalf("seed %d round %d (t=%.2f): %v", seed, round, now, err)
			}
			checkFloors(t, seed, round, inc, full)
			// Start what the round says and compare the post-start round,
			// mirroring the RMS's schedule→start→schedule sequence.
			inc.startArrived(outA, now)
			full.startArrived(outB, now)
			outA = gather(inc.s, inc.s.Schedule(now))
			outB = gather(full.s, full.s.Schedule(now))
			if err := inc.compareTo(full, outA, outB); err != nil {
				t.Fatalf("seed %d round %d post-start (t=%.2f): %v", seed, round, now, err)
			}
			checkFloors(t, seed, round, inc, full)
		}
	}
	return counts
}

// checkFloors is the floor property (§3.1 NotBefore, the gang coordinator's
// alignment): after a round, no unstarted request of either mirror is
// scheduled below its NotBefore floor. Admission only lets a FREE request
// carry one; a relation child follows its parent.
func checkFloors(t *testing.T, seed int64, round int, mirrors ...*diffMirror) {
	t.Helper()
	for _, m := range mirrors {
		for _, r := range m.reqs {
			if r.NotBefore > 0 && !r.Started() && !r.Finished && r.ScheduledAt < r.NotBefore-1e-9 {
				t.Fatalf("seed %d round %d: request %d (%v, relation %v, held %v) scheduled at %.4f below its floor %.4f",
					seed, round, r.ID, r.Type, r.RelatedHow, r.Held, r.ScheduledAt, r.NotBefore)
			}
		}
	}
}

// TestIncrementalStatsReuse sanity-checks that steady rounds actually hit
// the caches: after a quiet fleet settles, repeated rounds reuse every
// per-app artifact and every cluster walk — under the stable default and
// equally under a dynamic policy whose answer does not change, where
// FullRounds must count the structural rounds only. A connecting
// application is not one (it used to flush every cache, until a deep queue's
// connect per job made three rounds in four full); a new clip is.
func TestIncrementalStatsReuse(t *testing.T) {
	for _, p := range []SchedulingPolicy{FIFOPolicy{}, dynamicFIFO{}} {
		t.Run(p.Name(), func(t *testing.T) {
			s := NewScheduler(map[view.ClusterID]int{c0: 64})
			s.SetSchedulingPolicy(p)
			for i := 0; i < 8; i++ {
				a := s.AddApp(i+1, float64(i))
				pa := request.New(request.ID(2*i+1), a.ID, c0, 4, 1e6, request.PreAlloc, request.Free, nil)
				pa.StartedAt = 0
				a.PA.Add(pa)
				pr := request.New(request.ID(2*i+2), a.ID, c0, 2, math.Inf(1), request.Preempt, request.Free, nil)
				pr.StartedAt = 0
				a.P.Add(pr)
			}
			s.Schedule(1) // cold round populates the caches
			base := s.Stats()
			for i := 2; i < 10; i++ {
				s.Schedule(float64(i))
			}
			st := s.Stats()
			if got := st.CBFRecomputed - base.CBFRecomputed; got != 0 {
				t.Errorf("steady rounds recomputed %d CBF steps, want 0", got)
			}
			if got := st.CBFReused - base.CBFReused; got != 8*8 {
				t.Errorf("steady rounds reused %d CBF steps, want %d", got, 8*8)
			}
			if got := st.EqOccRecomputed - base.EqOccRecomputed; got != 0 {
				t.Errorf("steady rounds recomputed %d occupancies, want 0", got)
			}
			if got := st.WalksRecomputed - base.WalksRecomputed; got != 0 {
				t.Errorf("steady rounds recomputed %d cluster walks, want 0", got)
			}
			if got := st.EqAppReused - base.EqAppReused; got == 0 {
				t.Error("steady rounds should reuse the rescheduling pass")
			}
			if base.FullRounds != 1 || st.FullRounds != 1 {
				t.Errorf("FullRounds = %d after the cold round, %d after the steady ones, want 1 and 1", base.FullRounds, st.FullRounds)
			}
			s.AddApp(9, 9)
			s.Schedule(10)
			s.Schedule(11)
			if got := s.Stats().FullRounds; got != 1 {
				t.Errorf("FullRounds = %d after a connect, want 1", got)
			}
			s.SetClip(view.Constant(64, c0))
			s.Schedule(12)
			s.Schedule(13)
			if got := s.Stats().FullRounds; got != 2 {
				t.Errorf("FullRounds = %d after one structural change, want 2", got)
			}
		})
	}
}

// TestNonPreemptViewsKeepIdentity: a round in which no non-preemptive value
// changed hands over the same map objects as the round before. An
// application queued for capacity (2) keeps its CBF step until its queued
// start, so a round before it recomputes nothing — also when an
// application's preemptible set changed in between. (This test used to
// assert the opposite: a queued application was recomputed every round and
// broke the chain for those after it.) When its step is recomputed all the
// same, here after a mark that changed nothing, the runs of request-less
// applications, which share one view, and a settled application with a
// pending NEXT update keep their maps; the queued application's own view is
// not compared.
func TestNonPreemptViewsKeepIdentity(t *testing.T) {
	s := newSched(20)
	id := request.ID(1)
	mk := func(app int, n int, dur float64, typ request.Type, how request.Relation, parent *request.Request) *request.Request {
		r := request.New(id, app, c0, n, dur, typ, how, parent)
		id++
		s.App(app).SetFor(typ).Add(r)
		return r
	}
	for app := 1; app <= 7; app++ {
		s.AddApp(app, float64(app))
	}
	mk(1, 14, 100, request.NonPreempt, request.Free, nil).StartedAt = 0
	mk(2, 10, 10, request.NonPreempt, request.Free, nil) // queued until 100
	// Applications 3 and 4 are an idle run; so are 6 and 7.
	pa := mk(5, 6, 1e6, request.PreAlloc, request.Free, nil)
	pa.StartedAt = 0
	np := mk(5, 3, 50, request.NonPreempt, request.Coalloc, pa)
	np.StartedAt = 0
	mk(5, 4, 50, request.NonPreempt, request.Next, np)
	addr := func(v view.View) uintptr { return reflect.ValueOf(v).Pointer() }
	snapshot := func(out *gathered) map[int]uintptr {
		m := make(map[int]uintptr, len(out.NonPreemptViews))
		for id, v := range out.NonPreemptViews {
			m[id] = addr(v)
		}
		return m
	}
	before := snapshot(gather(s, s.Schedule(0)))
	for round, step := range []struct {
		mutate     func()
		recomputes bool
	}{
		{func() {}, false},
		{func() { // a preemptible change only: no non-preemptive value moves
			mk(3, 3, math.Inf(1), request.Preempt, request.Free, nil)
			s.MarkAppDirty(3)
		}, false},
		{func() { s.MarkAppDirty(2) }, true},
	} {
		step.mutate()
		recomputed := s.Stats().CBFRecomputed
		out := gather(s, s.Schedule(float64(round+1)))
		if got := s.Stats().CBFRecomputed > recomputed; got != step.recomputes {
			t.Fatalf("round %d recomputed an application: %v, want %v", round+1, got, step.recomputes)
		}
		for id, v := range out.NonPreemptViews {
			if (id != 2 || !step.recomputes) && addr(v) != before[id] {
				t.Errorf("round %d: application %d's non-preemptive view is a new map", round+1, id)
			}
		}
	}
}

// TestClusterWalkCut: a walk's cut fragment equals frags[j].TrimBefore(t0)
// for random profiles and instants on, between and before breakpoints, and
// the trimmed object of the last cut comes back exactly while t0 lies in
// [at, until) of that cut; any other instant, an earlier one included, cuts
// afresh.
func TestClusterWalkCut(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 400; iter++ {
		f := stepfunc.Zero()
		for k := rng.Intn(6); k > 0; k-- {
			f = f.AddRect(float64(rng.Intn(60)), float64(1+rng.Intn(40)), 1+rng.Intn(9))
		}
		bps := f.AppendBreakpoints(nil)
		w := &clusterWalk{key: []*stepfunc.StepFunc{nil, f}, frags: []*stepfunc.StepFunc{f}, cuts: make([]cutFrag, 2)}
		entry := &w.cuts[0]
		if f.IsZero() {
			entry = &w.cuts[1] // the zero-input slots' shared cut
		}
		t0 := 0.0
		for step := 0; step < 25; step++ {
			switch rng.Intn(4) {
			case 0: // on a breakpoint
				t0 = bps[rng.Intn(len(bps))]
			case 1: // between breakpoints, or past the last one
				t0 = rng.Float64() * 110
			case 2: // before the last cut
				t0 = math.Max(0, t0-rng.Float64()*20)
			case 3: // the same instant again
			}
			last := *entry
			got := w.cut(0, t0)
			if want := f.TrimBefore(t0); !got.Equal(want) {
				t.Fatalf("profile %v cut at %v = %v, want %v", f, t0, got, want)
			}
			hit := last.f != nil && last.at <= t0 && t0 < last.until
			if hit {
				if got != last.f || *entry != last {
					t.Fatalf("profile %v: cut at %v inside [%v, %v) of the last cut is a new object", f, t0, last.at, last.until)
				}
				continue
			}
			if c := *entry; c.at != t0 || c.until != f.NextBreakpoint(t0) {
				t.Fatalf("profile %v: cut at %v outside [%v, %v) kept the last cut %+v", f, t0, last.at, last.until, c)
			}
			// TrimBefore hands out f itself when nothing lies before t0 and
			// the shared zero when nothing is left: those are not copies.
			if got == last.f && got != f && got != stepfunc.Zero() {
				t.Fatalf("profile %v: cut at %v outside [%v, %v) returned the last trimmed object", f, t0, last.at, last.until)
			}
		}
	}
}

// TestClusterWalkPermute: every slot of a walk holds what a walk of its
// inputs gives, the zero-input slots one shared output and cut, and the walk
// is ordered exactly when a walk of every slot is. A walk whose
// division did not depend on its slots' order, handed its slot inputs in
// another order, is reordered rather than recomputed: every slot's output is
// what a fresh walk of the reordered inputs gives, and its cut fragment is
// the object cut before for a slot holding the same input. A walk whose
// division did depend on the order, or inputs that are not a reordering of
// its key, are refused.
func TestClusterWalkPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sc := &scratch{}
	var permuted, refused int
	for iter := 0; iter < 600; iter++ {
		// A small pool, so slots often share an input; zero included.
		pool := []*stepfunc.StepFunc{stepfunc.Zero()}
		for k := 0; k < 3; k++ {
			f := stepfunc.Zero()
			for r := 1 + rng.Intn(3); r > 0; r-- {
				f = f.AddRect(float64(rng.Intn(40)), float64(1+rng.Intn(40)), 1+rng.Intn(6))
			}
			pool = append(pool, f)
		}
		nw := 1 + rng.Intn(6)
		profs := make([]*stepfunc.StepFunc, nw+1)
		profs[0] = stepfunc.Rect(0, math.Inf(1), rng.Intn(20)) // small: often congested
		for j := 1; j <= nw; j++ {
			profs[j] = pool[rng.Intn(len(pool))]
		}
		policy := PreemptPolicy(rng.Intn(2))
		w := newClusterWalk(nil, profs, nw, policy, sc)
		ordered := w.ordered
		plain, plainOrdered := walkCluster(profs, nw, policy, sc)
		if ordered != plainOrdered {
			t.Fatalf("walk of %v: ordered %v, its own walk of every slot gives %v", profs, ordered, plainOrdered)
		}
		for j := range plain {
			if !w.frags[j].Equal(plain[j]) {
				t.Fatalf("walk of %v: slot %d holds %v, its own walk gives %v", profs, j, w.frags[j], plain[j])
			}
		}
		t0 := float64(rng.Intn(50))
		cuts := make([]*stepfunc.StepFunc, nw)
		for j := range cuts {
			cuts[j] = w.cut(j, t0)
		}
		for j := range cuts {
			for i := 0; i < j; i++ {
				if sharing := w.frags[i] == w.frags[j] && cuts[i] == cuts[j]; profs[1+i].IsZero() && profs[1+j].IsZero() && !sharing {
					t.Fatalf("walk of %v: zero-input slots %d and %d do not share one output and cut", profs, i, j)
				}
			}
		}

		alien := append([]*stepfunc.StepFunc(nil), profs...)
		alien[1+rng.Intn(nw)] = stepfunc.Rect(0, 1, 1)
		if w.permute(alien, sc) {
			t.Fatalf("walk of %v permuted to %v, which is no reordering of it", profs, alien)
		}
		if nw >= 3 && profs[1] != profs[2] && profs[1] != profs[3] && profs[2] != profs[3] {
			// Every slot changed, each to an input the walk has, one of
			// them twice.
			twice := append([]*stepfunc.StepFunc(nil), profs...)
			twice[1], twice[2], twice[3] = profs[2], profs[1], profs[1]
			if w.permute(twice, sc) {
				t.Fatalf("walk of %v permuted to %v, which is no reordering of it", profs, twice)
			}
		}
		moved := []*stepfunc.StepFunc{profs[0]}
		for _, i := range rng.Perm(nw) {
			moved = append(moved, profs[1+i])
		}
		if slices.Equal(w.key, moved) {
			continue // no slot's input moved: the walk is reused as it is
		}
		if ordered {
			if w.permute(moved, sc) {
				t.Fatalf("walk of %v, whose division depended on the order, was permuted", profs)
			}
			refused++
			continue
		}
		if !w.permute(moved, sc) {
			t.Fatalf("order-free walk of %v refused its reordering %v", profs, moved)
		}
		permuted++
		fresh, _ := walkCluster(moved, nw, policy, sc)
		for j := 0; j < nw; j++ {
			if w.key[1+j] != moved[1+j] || !w.frags[j].Equal(fresh[j]) {
				t.Fatalf("walk of %v reordered to %v: slot %d holds %v -> %v, a fresh walk gives %v",
					profs, moved, j, w.key[1+j], w.frags[j], fresh[j])
			}
			got := w.cut(j, t0)
			if !got.Equal(fresh[j].TrimBefore(t0)) {
				t.Fatalf("walk of %v reordered to %v: slot %d cut at %v = %v, want %v",
					profs, moved, j, t0, got, fresh[j].TrimBefore(t0))
			}
			same := false
			for i := range cuts {
				same = same || (got == cuts[i] && profs[1+i] == moved[1+j])
			}
			if !same {
				t.Fatalf("walk of %v reordered to %v: slot %d's cut fragment is not one cut before for its input", profs, moved, j)
			}
		}
	}
	if permuted < 100 || refused < 50 {
		t.Errorf("%d walks permuted and %d refused, want at least 100 and 50", permuted, refused)
	}
}

// TestClusterWalkRecycled: a recomputed walk takes over the arrays of the
// walk it replaces, so it allocates only its fragments — four allocations
// fewer than a walk built afresh (the walk, its key, fragments and cuts) —
// and holds what a fresh walk of the same inputs holds.
func TestClusterWalkRecycled(t *testing.T) {
	sc := &scratch{}
	profs := []*stepfunc.StepFunc{stepfunc.Rect(0, math.Inf(1), 12)}
	for j := 0; j < 6; j++ {
		profs = append(profs, stepfunc.Rect(float64(j), 10, 1+j%3), stepfunc.Zero())
	}
	nw := len(profs) - 1
	old := newClusterWalk(nil, profs, nw, EquiPartitionFilling, sc)
	fresh := testing.AllocsPerRun(20, func() { newClusterWalk(nil, profs, nw, EquiPartitionFilling, sc) })
	recycled := testing.AllocsPerRun(20, func() { old = newClusterWalk(old, profs, nw, EquiPartitionFilling, sc) })
	if recycled > fresh-4 {
		t.Errorf("a recycled walk allocates %.0f times, a fresh one %.0f: want at least 4 fewer", recycled, fresh)
	}
	want := newClusterWalk(nil, profs, nw, EquiPartitionFilling, sc)
	for j := 0; j < nw; j++ {
		if !old.frags[j].Equal(want.frags[j]) || !old.cut(j, 3).Equal(want.cut(j, 3)) {
			t.Fatalf("slot %d: the recycled walk holds %v, a fresh one %v", j, old.frags[j], want.frags[j])
		}
	}
}

// TestPreemptViewsKeepIdentity: a start round whose start leaves the
// started request's rectangle where fit put it hands over every preemptive
// fragment of the round before it at the same instant, recomputing no walk
// and rescheduling at most the started application. A change on one
// cluster then reschedules only the applications that request it.
// TestClusterWalkZeroSlotsAllocs: a walk builds one fragment per distinct
// slot, so zero-input slots beyond the first cost it no allocation however
// many there are, wherever they sit among the others.
func TestClusterWalkZeroSlotsAllocs(t *testing.T) {
	sc := &scratch{}
	walk := func(zeros int) float64 {
		profs := []*stepfunc.StepFunc{stepfunc.Rect(0, math.Inf(1), 12)}
		pad := func(n int) {
			for ; n > 0; n-- {
				profs = append(profs, stepfunc.Zero())
			}
		}
		for j := 0; j < 4; j++ {
			profs = append(profs, stepfunc.Rect(float64(j), 10, 2+j))
			switch j {
			case 1:
				pad(zeros / 2)
			case 2:
				pad(zeros - zeros/2)
			}
		}
		nw := len(profs) - 1
		return testing.AllocsPerRun(20, func() { newClusterWalk(nil, profs, nw, EquiPartitionFilling, sc) })
	}
	if many, one := walk(200), walk(1); many > one {
		t.Fatalf("a walk of 4 non-zero and 200 zero-input slots allocates %.0f times, one with 4 and 1 %.0f", many, one)
	}
}

func TestPreemptViewsKeepIdentity(t *testing.T) {
	s := NewScheduler(map[view.ClusterID]int{"cx": 24, "cy": 24})
	id := request.ID(1)
	mk := func(app int, cid view.ClusterID, n int, dur float64, typ request.Type) *request.Request {
		r := request.New(id, app, cid, n, dur, typ, request.Free, nil)
		id++
		s.App(app).SetFor(typ).Add(r)
		s.MarkAppDirty(app)
		return r
	}
	// Applications 1 and 2 request cx, 3 and 4 cy, 5 both; 6 will ask for
	// cy, and 7 requests no preemptible nodes.
	for app := 1; app <= 7; app++ {
		s.AddApp(app, float64(app))
	}
	for app, cids := range [][]view.ClusterID{1: {"cx"}, 2: {"cx"}, 3: {"cy"}, 4: {"cy"}, 5: {"cx", "cy"}} {
		for _, cid := range cids {
			mk(app, cid, 3, math.Inf(1), request.Preempt).StartedAt = 0
		}
	}
	s.Schedule(0)

	r := mk(6, "cy", 2, 50, request.Preempt)
	out := gather(s, s.Schedule(1))
	if len(out.ToStart) != 1 || out.ToStart[0] != r {
		t.Fatalf("ToStart = %v, want request %d alone", out.ToStart, r.ID)
	}
	before := make(map[int]view.View, len(out.PreemptViews))
	for app, v := range out.PreemptViews {
		before[app] = v
	}
	st := s.Stats()
	r.StartedAt = 1
	s.MarkAppDirty(6)
	out = gather(s, s.Schedule(1))
	for app, v := range out.PreemptViews {
		if !sameFrags(v, before[app]) {
			t.Errorf("application %d's preemptive fragments are new objects after a start-only round", app)
		}
	}
	if got := s.Stats().WalksRecomputed - st.WalksRecomputed; got != 0 {
		t.Errorf("a start-only round recomputed %d walks, want 0", got)
	}
	if got := s.Stats().EqAppRecomputed - st.EqAppRecomputed; got > 1 {
		t.Errorf("a start-only round rescheduled %d applications, want at most 1", got)
	}

	// A started non-preemptible request on cx changes the cx walk only.
	mk(7, "cx", 4, 100, request.NonPreempt).StartedAt = 2
	st = s.Stats()
	s.Schedule(2)
	if got := s.Stats().EqAppRecomputed - st.EqAppRecomputed; got != 3 {
		t.Errorf("a change on cx rescheduled %d applications, want 3 (1, 2 and 5 request cx)", got)
	}
}
