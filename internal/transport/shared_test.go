package transport

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"coormv2/internal/proto"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// deltaFrame is the delta views frame that takes a client from the pair was
// to the pair is, marshalled for that one session: the oracle a frame
// served from the server's memo must equal byte for byte.
func deltaFrame(t *testing.T, was, is [2]view.View) []byte {
	t.Helper()
	var enc [2]proto.ViewJSON
	for k := range enc {
		var names []view.ClusterID
		for cid := range changed(was[k], is[k]) {
			names = append(names, view.ClusterID(cid))
		}
		enc[k], _ = proto.EncodeViewAt(nil, nil, is[k], names)
	}
	m := proto.Message{Type: proto.MsgViews, Delta: true, NonPreemptView: enc[0], PreemptView: enc[1]}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fleetGroup pushes one cluster group's segments the way a shard's rounds
// reach a fleet of federated sessions: each round builds one pair that most
// sessions share, one session (the one with a request, say) gets its own
// preemptive view beside the shared non-preemptive one, and now and then
// another gets a pair of its own. Profiles come from a small pool, so the
// same objects, and equal ones under new pointers, recur.
type fleetGroup struct {
	rng    *rand.Rand
	cids   []view.ClusterID
	pool   []*stepfunc.StepFunc
	shared [2]view.View // the last round's shared pair
}

func newFleetGroup(seed int64, g int) *fleetGroup {
	fg := &fleetGroup{rng: rand.New(rand.NewSource(seed*10 + int64(g)))}
	for i := range 6 {
		fg.cids = append(fg.cids, genCluster(4*i+g))
	}
	for range 5 {
		steps := make([]stepfunc.Step, 1+fg.rng.Intn(3))
		for i := range steps {
			steps[i] = stepfunc.Step{Duration: float64(1 + fg.rng.Intn(600)), N: 1 + fg.rng.Intn(32)}
		}
		steps[len(steps)-1].Duration = math.Inf(1)
		fg.pool = append(fg.pool, stepfunc.FromSteps(steps...))
	}
	return fg
}

// pair is a fresh segment naming every cluster of the group, each mostly
// keeping its profile in base.
func (fg *fleetGroup) pair(base [2]view.View) [2]view.View {
	var out [2]view.View
	for k := range out {
		out[k] = view.New()
		for _, cid := range fg.cids {
			prev := base[k][cid]
			switch r := fg.rng.Intn(8); {
			case r < 4 && prev != nil:
				out[k][cid] = prev
			case r == 4:
				out[k][cid] = stepfunc.Zero()
			case r == 5:
				out[k][cid] = fg.pool[fg.rng.Intn(len(fg.pool))].Clone()
			default:
				out[k][cid] = fg.pool[fg.rng.Intn(len(fg.pool))]
			}
		}
	}
	return out
}

// round delivers one round's segments to every session and records what
// each got in latest.
func (fg *fleetGroup) round(wires []*deltaWire, latest [][2]view.View) {
	fg.shared = fg.pair(fg.shared)
	mine, own := fg.rng.Intn(len(wires)), -1
	if fg.rng.Intn(4) == 0 {
		own = fg.rng.Intn(len(wires))
	}
	for i, w := range wires {
		seg := fg.shared
		switch i {
		case own:
			seg = fg.pair(fg.shared)
		case mine:
			seg[1] = fg.pair(fg.shared)[1]
		}
		w.ws.OnViews(seg[0], seg[1])
		latest[i] = seg
	}
}

// TestSharedDeltaFramesAcrossSessions is the differential for the server's
// frame memo. Eight sessions on one server are fed by four goroutines, one
// per cluster group, with segments mostly shared across sessions and some
// private; group 0 also detaches and resumes sessions as it goes, so the
// same segments meet different change sets and different sessions. Every
// views frame any client read must be byte-identical to what its session
// alone would have marshalled — a connection's first frame the whole pair,
// every later one the delta from the client's previous pair — and every
// client must end holding the union of its groups' latest segments.
func TestSharedDeltaFramesAcrossSessions(t *testing.T) {
	const sessions, groups, rounds = 8, 4, 60
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			srv := newDeltaServer()
			wires := make([]*deltaWire, sessions)
			for i := range wires {
				app := &deltaApp{got: make(chan [2]view.View, 4*groups*rounds)}
				wires[i] = joinDeltaWire(t, srv, app, 4*groups*rounds)
				if i%2 == 0 {
					wires[i].attach()
				}
			}
			latest := make([][][2]view.View, groups) // group → session → its last segment pair
			var wg sync.WaitGroup
			for g := range groups {
				latest[g] = make([][2]view.View, sessions)
				wg.Add(1)
				go func() {
					defer wg.Done()
					fg := newFleetGroup(seed, g)
					for range rounds {
						fg.round(wires, latest[g])
						if g == 0 && fg.rng.Intn(4) == 0 {
							if w := wires[fg.rng.Intn(sessions)]; w.cw == nil {
								w.attach()
							} else {
								w.detach()
							}
						}
					}
				}()
			}
			wg.Wait()

			// A last segment names a cluster no group owns; once a client
			// holds it, it has read every frame before.
			end := view.ClusterID("end")
			for _, w := range wires {
				if w.cw == nil {
					w.attach()
				}
				w.ws.OnViews(view.View{end: stepfunc.Constant(1)}, nil)
			}
			for i, w := range wires {
				for held := false; !held; {
					select {
					case got := <-w.app.got:
						held = got[0][end] != nil
					case <-time.After(5 * time.Second):
						t.Fatalf("session %d: the last segment never arrived", i)
					}
				}
			}

			for i, w := range wires {
				w.app.mu.Lock()
				delivered := w.app.delivered
				w.app.mu.Unlock()
				n := 0 // views frames read so far, across connections
				for c, buf := range w.wires {
					var prev [2]view.View
					lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
					for j, line := range lines {
						if !bytes.HasSuffix(line, []byte("\n")) {
							continue // cut off with its connection
						}
						line = bytes.TrimSuffix(line, []byte("\n"))
						m, err := proto.Unmarshal(line)
						if err != nil {
							t.Fatal(err)
						}
						if m.Type != proto.MsgViews {
							continue
						}
						if n == len(delivered) {
							t.Fatalf("session %d: more views frames read than delivered", i)
						}
						is := delivered[n]
						want := referenceFrame(t, is[0], is[1], m.Replay)
						if m.Delta {
							want = deltaFrame(t, prev, is)
						}
						if (prev[0] == nil) == m.Delta || !bytes.Equal(line, want) {
							t.Fatalf("session %d, connection %d, line %d:\n got  %s\n want %s", i, c, j, line, want)
						}
						prev, n = is, n+1
					}
				}
				if n != len(delivered) {
					t.Fatalf("session %d: %d views frames read, %d delivered", i, n, len(delivered))
				}
				union := [2]view.View{{end: stepfunc.Constant(1)}, view.New()}
				for g := range groups {
					for k := range union {
						for cid, f := range latest[g][i][k] {
							if !f.IsZero() {
								union[k][cid] = f
							}
						}
					}
				}
				if last := delivered[n-1]; !last[0].Equal(union[0]) || !last[1].Equal(union[1]) {
					t.Fatalf("session %d holds\n np %v\n p  %v\nthe union is\n np %v\n p  %v", i, last[0], last[1], union[0], union[1])
				}
			}
			if st := srv.Stats(); st["evictions"] != 0 || st["views_delta_frames"] < int64(sessions*rounds) {
				t.Fatalf("stats %v: want no eviction and mostly delta frames", st)
			}
		})
	}
}

// TestSharedFrameServedOnlyForItsKey pins the memo's key, white-box: a slot
// holding the frame of one segment pair and change set never serves another
// — not another segment in the same slot, not the same non-preemptive
// segment with another preemptive one, not the same pair with other changes
// of the same size — and never serves a connection's first frame, nor takes
// one in. Each session's frame must be what it alone would marshal, and the
// memo's bytes must be capped at their length.
func TestSharedFrameServedOnlyForItsKey(t *testing.T) {
	srv := newDeltaServer()
	profile := func(n int) *stepfunc.StepFunc {
		return stepfunc.FromSteps(stepfunc.Step{Duration: 60, N: n}, stepfunc.Step{Duration: math.Inf(1), N: 2 * n})
	}
	// with is a fresh pair: base's clusters with the given ones replaced.
	with := func(set map[int]int) [2]view.View {
		var out [2]view.View
		for k := range out {
			out[k] = view.New()
			for i := range 4 {
				n, ok := set[4*k+i]
				if !ok {
					n = 10 + i
				}
				out[k][genCluster(i)] = profile(n)
			}
		}
		return out
	}
	// session opens a connection whose first frame, in full, carries pair.
	session := func(pair [2]view.View) *wireSession {
		t.Helper()
		ws := &wireSession{srv: srv, cw: &connWriter{ch: make(chan []byte, 4)}}
		ws.OnViews(pair[0], pair[1])
		if got, want := <-ws.cw.ch, referenceFrame(t, pair[0], pair[1], false); string(got) != string(want)+"\n" {
			t.Fatalf("a connection's first frame\n got  %s\n want %s", got, want)
		}
		return ws
	}
	// push hands ws a segment pair and checks the frame it sends.
	push := func(what string, ws *wireSession, seg [2]view.View) {
		t.Helper()
		was := [2]view.View{ws.np.Clone(), ws.p.Clone()}
		ws.OnViews(seg[0], seg[1])
		got, want := <-ws.cw.ch, deltaFrame(t, was, [2]view.View{ws.np, ws.p})
		if string(got) != string(want)+"\n" {
			t.Fatalf("%s:\n got  %s\n want %s", what, got, want)
		}
		f := srv.frameSlot(seg[0]).Load()
		if f == nil || !view.Same(f.np, seg[0]) || !view.Same(f.p, seg[1]) || string(f.data) != string(got) {
			t.Fatalf("%s: the memo does not hold the frame sent", what)
		}
		if cap(f.data) != len(f.data) {
			t.Fatalf("%s: the memo's frame has capacity %d past its %d bytes", what, cap(f.data), len(f.data))
		}
	}

	base := with(nil)
	seg := with(map[int]int{1: 20, 5: 20}) // c01 changed in both views
	push("a miss", session(base), seg)
	push("a hit", session(base), seg)

	// Another segment in seg's slot, changing the same clusters.
	var other [2]view.View
	for other[0] == nil || srv.frameSlot(other[0]) != srv.frameSlot(seg[0]) {
		other = with(map[int]int{1: 30, 5: 30})
	}
	push("another segment in the slot", session(base), other)
	push("the slot's first segment again", session(base), seg)

	push("the same non-preemptive segment, another preemptive one",
		session(base), [2]view.View{seg[0], with(map[int]int{1: 30, 5: 30})[1]})
	push("the slot's first segment again", session(base), seg)

	// This client already holds seg's c01 and a c02 seg does not, so seg
	// changes c02 alone: one cluster per view, as in the memo's entry.
	push("the same pair, another change of the same size",
		session(with(map[int]int{1: 20, 2: 40, 5: 20, 6: 40})), seg)
	push("the slot's first segment again", session(base), seg)
	push("the same pair, the same change in np, another in p",
		session(with(map[int]int{1: 20, 2: 40})), seg)

	// A connection's first frame names every cluster, as does a delta from
	// a pair that differs everywhere: the first must not stand for the
	// second.
	all := with(map[int]int{0: 50, 1: 51, 2: 52, 3: 53, 4: 54, 5: 55, 6: 56, 7: 57})
	session(all)
	push("a delta after a first frame of the same segments", session(base), all)
}
