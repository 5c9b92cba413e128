package federation

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/metrics"
	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// idTally counts, over one or more driveGangOps runs, the reports that
// quoted a request ID, by kind, and what the runs put the IDs through. Like
// idApp it is only used on the simulated clock, from one goroutine.
type idTally struct {
	starts, finishes, reaps, nodeFaults, errors int
	shardEvents                                 int   // obs events a shard stamped with a request
	vanished                                    int   // (live session, lost cluster) pairs checked
	committed, migrated, replayed               int64 // gangs, clusters, requests
}

// idApp is the recording handler of the request-ID property: whatever a
// shard reports about a session's request — start, finish, reap, node
// failure, or a RequestError from a call — quotes an ID the session's
// Request returned, through every replay, migration and reservation. It
// implements rms.RequestObserver and rms.NodeFailureHandler to see them all.
// It also tracks which of its IDs are still the session's to end: done() on
// one of those must find the request, wherever its record stands; and what
// its view segments add up to.
type idApp struct {
	t       *testing.T
	tally   *idTally
	issued  map[request.ID]bool
	retired map[request.ID]bool // a finish, reap or drop was delivered
	killed  bool
	held    [2]view.View
}

func (a *idApp) quoted(what string, id request.ID, n *int) {
	if !a.issued[id] {
		a.t.Errorf("%s quotes request %d, which Session.Request never returned to this session", what, id)
	}
	*n++
}

func (a *idApp) OnViews(np, p view.View) {
	a.held = [2]view.View{patch(a.held[0], np), patch(a.held[1], p)}
}
func (a *idApp) OnKill(string)                  { a.killed = true }
func (a *idApp) OnStart(id request.ID, _ []int) { a.quoted("start", id, &a.tally.starts) }
func (a *idApp) OnRequestFinished(id request.ID) {
	a.quoted("finish", id, &a.tally.finishes)
	a.retired[id] = true
}
func (a *idApp) OnNodeFailure(ev rms.NodeFailure) {
	a.quoted("node failure", ev.Request, &a.tally.nodeFaults)
}
func (a *idApp) OnRequestsReaped(ids []request.ID) {
	for _, id := range ids {
		a.quoted("reap", id, &a.tally.reaps)
		a.retired[id] = true
	}
}

// done calls Done on sess. A live session's own request that no notification
// has retired is still in its table — placed, held, released or queued — so
// the call may fail for many reasons but never with "not found".
func (a *idApp) done(sess *Session, id request.ID) {
	mine := a.issued[id] && !a.retired[id] && !a.killed
	err := sess.Done(id, nil)
	a.callErr("done()", err, id)
	var re *rms.RequestError
	if mine && errors.As(err, &re) && re.Reason == rms.ReasonNotFound {
		a.t.Errorf("done() on live request %d of this session answered %v", id, err)
	}
}

// request submits spec on sess and records the returned ID as issued. A
// RequestError may only be about the spec's related request.
func (a *idApp) request(sess *Session, spec rms.RequestSpec) (request.ID, error) {
	id, err := sess.Request(spec)
	if err == nil {
		a.issued[id] = true
	}
	a.callErr("request()", err, spec.RelatedTo)
	return id, err
}

// callErr checks that a RequestError returned by a call names the ID the
// caller passed in.
func (a *idApp) callErr(what string, err error, passed request.ID) {
	var re *rms.RequestError
	if !errors.As(err, &re) {
		return
	}
	if re.ID != passed {
		a.t.Errorf("%s about request %d answered %v", what, passed, err)
	}
	a.tally.errors++
}

// driveGangOps interprets data as a stream of (op, arg) byte pairs against a
// 2-shard, 3-cluster federation with two sessions: plain and related
// requests (a cross-shard parent starts a two-phase reservation), done(),
// shard crashes and restarts, cluster migrations, node failures and
// recoveries, and clock advances. data[0] picks the crash and node recovery
// policies. It asserts the federation invariants after every step — no
// leaked holds, no half-committed gangs, every placed request held by its
// shard under the same ID — that every reported request ID is one
// Session.Request returned: to the application (idApp), and in the obs
// events the shards themselves stamp — and that the clusters of a down shard,
// or of a migration, vanish from what every live application holds until
// their (new) owner pushes them. It also keeps its own model of which
// machines are down per cluster: a node fault must succeed exactly when the
// model says the machine is up (down, for a recovery), whether or not its
// shard is running, and every shard, crashed ones included, must report the
// model's set for each cluster it hosts. Request and migration errors are
// legal outcomes (killed sessions, down shards, last clusters); invariant
// violations, foreign IDs, model mismatches and panics are the failures.
func driveGangOps(t *testing.T, data []byte, tally *idTally) {
	if len(data) == 0 {
		return
	}
	pol := KillOnCrash
	if data[0]&1 == 1 {
		pol = RequeueOnCrash
	}
	nodePol := []rms.NodeRecoveryPolicy{rms.KillOnNodeFailure, rms.RequeueOnNodeFailure, rms.CooperativeOnNodeFailure}[int(data[0]>>1)%3]
	data = data[1:]

	clusterIDs := []view.ClusterID{cA, cB, cC}
	e := sim.NewEngine()
	reg := obs.NewRegistry()
	fed := New(Config{
		Clusters:        map[view.ClusterID]int{cA: 6, cB: 6, cC: 6},
		Shards:          2,
		ReschedInterval: 1,
		Clock:           clock.SimClock{E: e},
		Recovery:        pol,
		NodeRecovery:    nodePol,
		Metrics:         func(int) *metrics.Recorder { return metrics.NewRecorder() },
		Obs:             reg,
	})
	type client struct {
		app  *idApp
		sess *Session
	}
	apps := make(map[int]*idApp) // by application ID, every session ever connected
	connect := func() client {
		app := &idApp{t: t, tally: tally, issued: make(map[request.ID]bool), retired: make(map[request.ID]bool)}
		sess := fed.Connect(app)
		apps[sess.AppID()] = app
		return client{app, sess}
	}
	clients := []client{connect(), connect()}
	var ids []request.ID // successfully submitted requests, any session

	down := make(map[view.ClusterID]map[int]bool) // the model: machines down, per cluster
	for _, cid := range clusterIDs {
		down[cid] = make(map[int]bool)
	}
	check := func(op int) {
		if err := fed.CheckInvariants(); err != nil {
			t.Fatalf("after op %d: %v", op, err)
		}
		for i := 0; i < fed.NumShards(); i++ {
			for cid := range fed.Shard(i).Clusters() {
				want := slices.Sorted(maps.Keys(down[cid]))
				if got := fed.Shard(i).FailedNodeIDs(cid); !slices.Equal(got, want) {
					t.Fatalf("after op %d: shard %d (down %t) reports %v down on %s, the model %v",
						op, i, fed.ShardDown(i), got, cid, want)
				}
			}
		}
	}
	// nodeFault applies a failure (fail) or recovery of one machine and
	// checks the outcome against the model before updating it.
	nodeFault := func(op int, cid view.ClusterID, node int, fail bool) {
		var err error
		if fail {
			_, err = fed.FailNodes(cid, []int{node})
		} else {
			_, err = fed.RecoverNodes(cid, []int{node})
		}
		if want := down[cid][node] != fail; (err == nil) != want {
			t.Fatalf("op %d: fail=%t of node %d on %s answered %v; the model has it down: %t",
				op, fail, node, cid, err, down[cid][node])
		}
		if err != nil {
			return
		}
		if fail {
			down[cid][node] = true
		} else {
			delete(down[cid], node)
		}
	}
	// gone checks that no live session holds availability on a cluster of a
	// down shard, nor on moved, the cluster a migration just took away: only
	// its new owner's next round may name it again.
	gone := func(op int, moved view.ClusterID) {
		var lost []view.ClusterID
		if moved != "" {
			lost = append(lost, moved)
		}
		for i := 0; i < fed.NumShards(); i++ {
			if fed.ShardDown(i) {
				for cid := range fed.Shard(i).Clusters() {
					lost = append(lost, cid)
				}
			}
		}
		for id, app := range apps {
			if app.killed {
				continue
			}
			for _, cid := range lost {
				if _, np := app.held[0][cid]; np || app.held[1][cid] != nil {
					t.Fatalf("after op %d: app %d holds %s (np %v, p %v), which a crash or migration took away",
						op, id, cid, app.held[0], app.held[1])
				}
				tally.vanished++
			}
		}
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]>>4, data[i+1]
		c := clients[int(data[i]&0x0f)%len(clients)]
		var moved view.ClusterID
		switch op % 10 {
		case 0: // plain request
			dur := float64(1 + arg%40)
			if arg%16 == 0 {
				dur = math.Inf(1)
			}
			if id, err := c.app.request(c.sess, rms.RequestSpec{
				Cluster: clusterIDs[int(arg)%len(clusterIDs)],
				N:       1 + int(arg%4), Duration: dur, Type: request.NonPreempt,
			}); err == nil {
				ids = append(ids, id)
			}
		case 1: // related request — cross-shard parents start a gang
			if len(ids) == 0 {
				continue
			}
			how := request.Next
			if arg&1 == 1 {
				how = request.Coalloc
			}
			if id, err := c.app.request(c.sess, rms.RequestSpec{
				Cluster: clusterIDs[int(arg>>1)%len(clusterIDs)],
				N:       1 + int(arg%3), Duration: float64(1 + arg%20), Type: request.NonPreempt,
				RelatedHow: how, RelatedTo: ids[int(arg)%len(ids)],
			}); err == nil {
				ids = append(ids, id)
			}
		case 2: // done on a random known request (maybe another session's)
			if len(ids) > 0 {
				id := ids[int(arg)%len(ids)]
				c.app.done(c.sess, id)
			}
		case 3: // crash a shard
			fed.CrashShard(int(arg) % fed.NumShards())
		case 4: // restart a shard
			fed.RestartShard(int(arg) % fed.NumShards())
		case 5: // migrate a cluster (errors — down/last/same-shard — are fine)
			if rep, err := fed.MigrateCluster(clusterIDs[int(arg)%len(clusterIDs)], int(arg>>4)%fed.NumShards()); err == nil {
				moved = rep.Cluster
			}
		case 6: // let timers, alignment, and backoff fire
			e.Run(e.Now() + float64(arg%16))
		case 7: // reconnect a fresh session in a killed slot
			clients[int(arg)%len(clients)] = connect()
		case 8: // a machine dies (already down: the model expects an error)
			nodeFault(i, clusterIDs[int(arg)%len(clusterIDs)], int(arg>>2)%6, true)
		case 9: // a machine comes back (not down: the model expects an error)
			nodeFault(i, clusterIDs[int(arg)%len(clusterIDs)], int(arg>>2)%6, false)
		}
		check(i)
		gone(i, moved)
		e.Run(e.Now() + 1)
		check(i)
		gone(i, "")
	}
	// Drain far enough for every pending gang to commit or abort, then
	// re-check: nothing may leak once the machinery settles.
	e.Run(e.Now() + 500)
	check(len(data))
	for _, ev := range reg.Events() {
		if ev.Shard == "" || ev.Request == 0 {
			continue
		}
		tally.shardEvents++
		if app := apps[ev.App]; app == nil || !app.issued[request.ID(ev.Request)] {
			t.Errorf("%s event %s quotes request %d of app %d, which Session.Request never returned", ev.Shard, ev.Type, ev.Request, ev.App)
		}
	}
	st := fed.Stats()
	tally.committed += st["gang_committed"]
	tally.migrated += st["migrated_clusters"]
	tally.replayed += st["replayed_requests"]
}

// FuzzGangReservations drives the reservation state machine, and with it the
// request-ID property, through random driveGangOps interleavings.
func FuzzGangReservations(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x23, 0x31, 0x41, 0x65})
	f.Add([]byte{0x01, 0x12, 0x24, 0x30, 0x40, 0x52, 0x61})
	f.Add([]byte{0x02, 0x13, 0x13, 0x25, 0x33, 0x43, 0x50, 0x67, 0x21})
	f.Add([]byte{0x03, 0x11, 0x26, 0x32, 0x62, 0x42, 0x14, 0x29})
	// Four of beta's six nodes fail, a 3-node NEXT child of a request on alpha
	// cannot fit there and is released; done() on it lands in the back-off.
	f.Add([]byte{0x00, 0x80, 1, 0x80, 4, 0x80, 10, 0x80, 13, 0x00, 39, 0x10, 2, 0x60, 0, 0x20, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		driveGangOps(t, data, new(idTally))
	})
}

// TestRequestIDsEndToEnd runs the chaos × migration × gang × node-fault op
// matrix — every crash policy × node recovery policy, three seeded op streams
// each — under the recording handler, and requires every kind of report to
// have occurred somewhere in it, so no arm of the property is vacuous.
func TestRequestIDsEndToEnd(t *testing.T) {
	tally := new(idTally)
	for policies := byte(0); policies < 6; policies++ {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 241)
			rng.Read(data)
			data[0] = policies
			driveGangOps(t, data, tally)
		}
	}
	if tally.starts == 0 || tally.finishes == 0 || tally.reaps == 0 || tally.nodeFaults == 0 || tally.errors == 0 || tally.shardEvents == 0 ||
		tally.vanished == 0 || tally.committed == 0 || tally.migrated == 0 || tally.replayed == 0 {
		t.Fatalf("vacuous matrix: %+v", tally)
	}
}
