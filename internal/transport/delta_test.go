package transport

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/proto"
	"coormv2/internal/request"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// referenceFrame is the views frame as the transport encoded it before
// delta frames — every cluster of both views, on every push — kept as the
// oracle the delta path is checked against.
func referenceFrame(t *testing.T, np, p view.View, replay bool) []byte {
	t.Helper()
	m := proto.Message{
		Type:           proto.MsgViews,
		NonPreemptView: proto.EncodeView(np),
		PreemptView:    proto.EncodeView(p),
		Replay:         replay,
	}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// deltaApp retains every views pair the client hands it, with a snapshot
// taken on delivery, so the test can tell whether a delivered map was
// written to afterwards.
type deltaApp struct {
	got       chan [2]view.View
	mu        sync.Mutex
	delivered [][2]view.View
	snapshots [][2]view.View
}

func (a *deltaApp) OnViews(np, p view.View) {
	a.mu.Lock()
	a.delivered = append(a.delivered, [2]view.View{np, p})
	a.snapshots = append(a.snapshots, [2]view.View{np.Clone(), p.Clone()})
	a.mu.Unlock()
	if a.got != nil {
		a.got <- [2]view.View{np, p}
	}
}
func (a *deltaApp) OnStart(request.ID, []int) {}
func (a *deltaApp) OnKill(string)             {}

// deltaWire joins a server-side wireSession to a client-side read loop
// over net.Pipe, one pipe per connection, and records the bytes that cross.
type deltaWire struct {
	t   *testing.T
	ws  *wireSession
	c   *Client
	app *deltaApp

	cw      *connWriter
	queue   int // cw's queue bound
	peer    net.Conn
	wire    *bytes.Buffer   // what the client read on this connection
	wires   []*bytes.Buffer // and on every connection so far
	loopErr chan error
}

func newDeltaServer() *Server {
	srv := NewBackendServer(nil)
	srv.Logf = func(string, ...any) {}
	srv.Grace = time.Hour
	return srv
}

func newDeltaWire(t *testing.T) *deltaWire {
	return joinDeltaWire(t, newDeltaServer(), &deltaApp{got: make(chan [2]view.View, 1)}, 16)
}

// joinDeltaWire adds a session to srv whose connections queue at most
// queue frames and whose client hands its views to app.
func joinDeltaWire(t *testing.T, srv *Server, app *deltaApp, queue int) *deltaWire {
	w := &deltaWire{
		t:     t,
		app:   app,
		queue: queue,
		ws: &wireSession{
			srv:    srv,
			token:  "tok",
			starts: make(map[int64][]int),
			idem:   make(map[int64]*idemEntry),
		},
		c: &Client{h: app, clk: clock.NewRealClock(), notif: make(chan func(), 1), dispatchDone: make(chan struct{})},
	}
	go w.c.dispatchLoop()
	t.Cleanup(func() {
		w.detach()
		close(w.c.notif)
		<-w.c.dispatchDone
		w.ws.mu.Lock()
		w.ws.graceT.Stop()
		w.ws.mu.Unlock()
	})
	return w
}

// attach opens a connection: the server side attaches (replaying current
// views on a resume) and a fresh client read loop starts on the other end.
func (w *deltaWire) attach() {
	srvEnd, cliEnd := net.Pipe()
	w.cw = newConnWriter(srvEnd, w.queue, 10*time.Second)
	w.peer, w.wire, w.loopErr = cliEnd, new(bytes.Buffer), make(chan error, 1)
	w.wires = append(w.wires, w.wire)
	fr := newFrameReader(io.TeeReader(cliEnd, w.wire), 0)
	loopErr := w.loopErr
	go func() { loopErr <- w.c.readLoop(fr) }()
	if !w.ws.attach(w.cw, proto.Message{Type: proto.MsgConnected, AppID: 1, Resume: "tok"}) {
		w.t.Fatal("attach refused")
	}
}

// detach drops the connection the way a dead socket does.
func (w *deltaWire) detach() {
	if w.cw == nil {
		return
	}
	w.peer.Close()
	<-w.loopErr
	w.ws.dropConn(w.cw)
	w.cw.drainThenClose()
	w.cw = nil
}

// await returns the pair the client delivered for the frame just pushed
// and that frame as it crossed the wire.
func (w *deltaWire) await() ([2]view.View, *proto.Message, []byte) {
	w.t.Helper()
	var got [2]view.View
	select {
	case got = <-w.app.got:
	case err := <-w.loopErr:
		w.loopErr <- err // for detach
		w.t.Fatalf("client read loop ended: %v", err)
	case <-time.After(5 * time.Second):
		w.t.Fatal("no views delivered")
	}
	// The read loop is parked in the next read; the buffer is quiescent.
	lines := bytes.Split(bytes.TrimSuffix(w.wire.Bytes(), []byte("\n")), []byte("\n"))
	line := append([]byte(nil), lines[len(lines)-1]...)
	m, err := proto.Unmarshal(line)
	if err != nil || m.Type != proto.MsgViews {
		w.t.Fatalf("last frame %s: not a views frame (%v)", line, err)
	}
	return got, m, line
}

// segGen produces view segments the way a federated session receives them
// (see rms.AppHandler.OnViews): 24 clusters owned by 4 groups (shards); a
// push names every cluster of its group, zero profiles included; a crash
// names the group's clusters zero; a migration names the moved cluster zero
// and its new owner's next push names it again. Beside them it keeps the
// merge the federation used to build as the oracle: each group's latest
// pair (nothing while the group is down, the moved cluster stripped from its
// donor's), unioned.
type segGen struct {
	rng    *rand.Rand
	owner  [24]int         // cluster index → group
	latest [4][2]view.View // each group's latest pair; zero while down
	down   [4]bool
	shared []*stepfunc.StepFunc
}

func newSegGen(seed int64) *segGen {
	g := &segGen{rng: rand.New(rand.NewSource(seed))}
	for i := range g.owner {
		g.owner[i] = i % 4
	}
	return g
}

func genCluster(i int) view.ClusterID { return view.ClusterID(fmt.Sprintf("c%02d", i)) }

func (g *segGen) profile() *stepfunc.StepFunc {
	if len(g.shared) > 0 && g.rng.Intn(3) == 0 {
		return g.shared[g.rng.Intn(len(g.shared))] // same object as elsewhere
	}
	steps := make([]stepfunc.Step, 1+g.rng.Intn(4))
	for i := range steps {
		steps[i] = stepfunc.Step{Duration: float64(1 + g.rng.Intn(3600)), N: g.rng.Intn(64)}
	}
	if g.rng.Intn(2) == 0 {
		steps[len(steps)-1].Duration = math.Inf(1)
	}
	f := stepfunc.FromSteps(steps...)
	g.shared = append(g.shared, f)
	return f
}

// next picks a pushed cluster's profile given its previous one (nil if the
// group's last push did not name it): mostly unchanged, else a named zero,
// an equal profile under a new pointer, or another profile.
func (g *segGen) next(prev *stepfunc.StepFunc) *stepfunc.StepFunc {
	switch k := g.rng.Intn(8); {
	case k < 5 && prev != nil:
		return prev
	case k == 5:
		return stepfunc.Zero()
	case k == 6:
		return g.profile().Clone()
	default:
		return g.profile()
	}
}

// step produces the next segment. Delivered views are immutable, so every
// segment is a new map (sharing profiles freely).
func (g *segGen) step() (np, p view.View, what string) {
	grp := g.rng.Intn(4)
	switch k := g.rng.Intn(16); {
	case k == 0:
		return view.New(), view.New(), "empty"
	case k == 1:
		return nil, nil, "nil"
	case k == 2 && !g.down[grp]:
		lost := view.New()
		for i, o := range g.owner {
			if o == grp {
				lost[genCluster(i)] = stepfunc.Zero()
			}
		}
		g.latest[grp], g.down[grp] = [2]view.View{}, true
		return lost, lost, "crash"
	case k == 3:
		i := g.rng.Intn(len(g.owner))
		from, to, size := g.owner[i], (g.owner[i]+1+g.rng.Intn(3))%4, 0
		for _, o := range g.owner {
			if o == from {
				size++
			}
		}
		if g.down[from] || g.down[to] || size == 1 {
			return view.New(), view.New(), "refused migration"
		}
		cid := genCluster(i)
		g.owner[i] = to
		for j, v := range g.latest[from] {
			if v != nil {
				v = v.Clone()
				delete(v, cid)
				g.latest[from][j] = v
			}
		}
		lost := view.View{cid: stepfunc.Zero()}
		return lost, lost, "migration"
	default: // a push by grp, which restarts it if it was down
		prev := g.latest[grp]
		np, p = view.New(), view.New()
		for i, o := range g.owner {
			if o == grp {
				cid := genCluster(i)
				np[cid], p[cid] = g.next(prev[0][cid]), g.next(prev[1][cid])
			}
		}
		g.latest[grp], g.down[grp] = [2]view.View{np, p}, false
		return np, p, fmt.Sprintf("push by group %d", grp)
	}
}

// union is the oracle: the disjoint union of the groups' latest pairs,
// without zero profiles.
func (g *segGen) union() (np, p view.View) {
	out := [2]view.View{view.New(), view.New()}
	for _, l := range g.latest {
		for k := range out {
			for cid, f := range l[k] {
				if !f.IsZero() {
					out[k][cid] = f
				}
			}
		}
	}
	return out[0], out[1]
}

// changed lists the clusters whose profile differs between a and b.
func changed(a, b view.View) map[string]bool {
	out := make(map[string]bool)
	for _, v := range []view.View{a, b} {
		for cid := range v {
			if !a.Get(cid).Equal(b.Get(cid)) {
				out[string(cid)] = true
			}
		}
	}
	return out
}

// TestDeltaViewsMatchFullEncode is the differential oracle for view
// segments on the wire: whatever sequence of segments the server is given —
// pushes from 4 cluster groups with named zeros, crashes, migrations, empty
// segments, with detaches, pushes while detached and resumes in between —
// the pair the client hands its handler after every frame equals the union
// of each group's latest pair and what the reference full frame of that
// union decodes to; a connection's first views frame is byte-identical to
// the reference; a delta lists exactly the clusters whose union profile
// changed; delivered maps are never written to again.
func TestDeltaViewsMatchFullEncode(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := newDeltaWire(t)
			g := newSegGen(seed)
			w.attach()
			var sentNP, sentP view.View // what this connection's client holds
			first := true               // next views frame opens the connection
			fulls, deltas := 0, 0
			seen := make(map[string]int) // segment kinds stepped while attached
			check := func(replay bool, what string) {
				t.Helper()
				np, p := g.union()
				got, m, line := w.await()
				if !got[0].Equal(np) || !got[1].Equal(p) {
					t.Fatalf("%s: client holds\n np %v\n p  %v\nthe union is\n np %v\n p  %v\nframe %s",
						what, got[0], got[1], np, p, line)
				}
				ref, err := proto.Unmarshal(referenceFrame(t, np, p, replay))
				if err != nil {
					t.Fatal(err)
				}
				rnp, _ := ref.NonPreemptView.DecodeView()
				rp, _ := ref.PreemptView.DecodeView()
				if !got[0].Equal(rnp) || !got[1].Equal(rp) {
					t.Fatalf("%s: client pair differs from the reference full frame's", what)
				}
				for _, v := range got {
					for cid, f := range v {
						if f == nil || f.IsZero() {
							t.Fatalf("%s: delivered view carries a zero profile for %s", what, cid)
						}
					}
				}
				if m.Replay != replay {
					t.Fatalf("%s: replay = %v, want %v", what, m.Replay, replay)
				}
				if first {
					if want := referenceFrame(t, np, p, replay); m.Delta || !bytes.Equal(line, want) {
						t.Fatalf("%s: first views frame of a connection\n got  %s\n want %s", what, line, want)
					}
					fulls++
				} else {
					if !m.Delta {
						t.Fatalf("%s: full frame in mid-connection: %s", what, line)
					}
					for k, d := range []struct {
						listed proto.ViewJSON
						was    view.View
						is     view.View
					}{{m.NonPreemptView, sentNP, np}, {m.PreemptView, sentP, p}} {
						want := changed(d.was, d.is)
						listed := make(map[string]bool, len(d.listed))
						for cid := range d.listed {
							listed[cid] = true
						}
						if !maps.Equal(listed, want) {
							t.Fatalf("%s: view %d of the delta lists %v, the union changed %v: %s", what, k, listed, want, line)
						}
					}
					deltas++
				}
				sentNP, sentP, first = np, p, false
			}
			for i := 0; i < 300; i++ {
				if g.rng.Intn(25) == 0 {
					w.detach()
					pushed := g.rng.Intn(4)
					for j := 0; j < pushed; j++ {
						np, p, _ := g.step()
						w.ws.OnViews(np, p)
					}
					first = true
					w.attach()
					if i > 0 || pushed > 0 {
						// The resume replays what the segments add up to, in full.
						check(true, "resume")
					}
				}
				np, p, what := g.step()
				w.ws.OnViews(np, p)
				check(false, fmt.Sprintf("step %d (%s)", i, what))
				seen[strings.Fields(what)[0]]++
			}
			if fulls < 2 || deltas < 200 || seen["crash"] == 0 || seen["migration"] == 0 || seen["empty"] == 0 || seen["nil"] == 0 {
				t.Fatalf("sequence exercised %d full and %d delta frames, segments %v", fulls, deltas, seen)
			}
			st := w.ws.srv.Stats()
			if st["views_full_frames"] != int64(fulls) || st["views_delta_frames"] != int64(deltas) || st["views_bytes"] <= 0 {
				t.Fatalf("stats %v, want %d full / %d delta frames", st, fulls, deltas)
			}
			w.app.mu.Lock()
			defer w.app.mu.Unlock()
			for i, d := range w.app.delivered {
				for k := range d {
					if s := w.app.snapshots[i][k]; len(d[k]) != len(s) || !d[k].Equal(s) {
						t.Fatalf("views delivered by frame %d were modified afterwards", i)
					}
				}
			}
		})
	}
}

// TestDeltaBeforeFullIsConnectionFatal pins the client's guard: a delta
// with no full views frame before it on the same connection ends the
// connection (the resume path re-syncs) instead of patching stale views.
func TestDeltaBeforeFullIsConnectionFatal(t *testing.T) {
	app := &deltaApp{got: make(chan [2]view.View, 4)}
	c := &Client{h: app, clk: clock.NewRealClock(), notif: make(chan func(), 4)}
	full := `{"type":"views","np_view":{"c0":[{"dur":-1,"n":4}]}}`
	delta := `{"type":"views","np_view":{"c0":[{"dur":-1,"n":3}]},"delta":true}`

	err := c.readLoop(newFrameReader(bytes.NewBufferString(full+"\n"+delta+"\n"), 0))
	if err != io.EOF || len(c.notif) != 2 {
		t.Fatalf("full then delta: err %v, %d deliveries; want EOF, 2", err, len(c.notif))
	}
	// A new connection starts from nothing, whatever the last one held.
	err = c.readLoop(newFrameReader(bytes.NewBufferString(delta+"\n"), 0))
	if err == nil || err == io.EOF || len(c.notif) != 2 {
		t.Fatalf("delta first: err %v, %d deliveries; want a connection error, still 2", err, len(c.notif))
	}
}

// TestViewsBeforeAttachReachFreshSession pins the connect race: a round that
// pushes a fresh session's first views between the backend connect and the
// attach of its connection must not lose them — the RMS pushes only what
// changed, so nothing would ever re-send them.
func TestViewsBeforeAttachReachFreshSession(t *testing.T) {
	w := newDeltaWire(t)
	np, p := view.Constant(16, c0), view.Constant(8, c0)
	w.ws.OnViews(np, p)
	w.attach()
	got, m, line := w.await()
	if !got[0].Equal(np) || !got[1].Equal(p) || m.Delta || m.Replay {
		t.Fatalf("fresh session's first frame: %s", line)
	}
}

// TestOnViewsDeltaAllocs pins what a delta views frame allocates on the
// server: a segment that names all 8 clusters of the pair and changes one
// of them. Alternating two segment pairs, every frame after the first two
// is in the server's memo and is enqueued as it is. A frame the memo lacks
// (its slot is emptied before each) costs its encoded profiles, its bytes
// and its memo entry — the delta maps, the array of their steps and the
// frame being marshalled are the session's own, reused under its lock, and
// a profile is encoded straight from its breakpoints. The connection's
// queue is never drained here, so it holds more than the frames sent, and
// nothing is evicted.
func TestOnViewsDeltaAllocs(t *testing.T) {
	srv := NewBackendServer(nil)
	srv.Logf = func(string, ...any) {}
	ws := &wireSession{srv: srv}
	ws.cw = &connWriter{ch: make(chan []byte, 512)}
	profiles := [2]*stepfunc.StepFunc{
		stepfunc.FromSteps(stepfunc.Step{Duration: 30, N: 4}, stepfunc.Step{Duration: math.Inf(1), N: 8}),
		stepfunc.FromSteps(stepfunc.Step{Duration: 60, N: 2}, stepfunc.Step{Duration: math.Inf(1), N: 8}),
	}
	segs := [2][2]view.View{}
	for k := range segs {
		// Two pairs in one memo slot would evict each other on every frame.
		for segs[k][0] == nil || k == 1 && srv.frameSlot(segs[1][0]) == srv.frameSlot(segs[0][0]) {
			for j := range segs[k] {
				segs[k][j] = view.New()
				for i := range 8 {
					segs[k][j][genCluster(i)] = stepfunc.Constant(8 + i + j)
				}
				segs[k][j][genCluster(3)] = profiles[k]
			}
		}
	}
	ws.OnViews(segs[0][0], segs[0][1]) // the connection's full frame
	k := 0
	push := func() {
		k = 1 - k
		ws.OnViews(segs[k][0], segs[k][1])
	}
	push() // the memo's first entry; the warm-up run makes the second
	hit := testing.AllocsPerRun(200, push)
	miss := testing.AllocsPerRun(200, func() {
		srv.frameSlot(segs[1-k][0]).Store(nil)
		push()
	})
	if st := srv.Stats(); st["views_full_frames"] != 1 || st["views_delta_frames"] != 403 || st["evictions"] != 0 {
		t.Fatalf("stats %v, want 1 full and 403 delta frames", st)
	}
	var last []byte
	for len(ws.cw.ch) > 0 {
		last = <-ws.cw.ch
	}
	want := `{"type":"views","np_view":{"c03":[{"dur":60,"n":2},{"dur":-1,"n":8}]},"p_view":{"c03":[{"dur":60,"n":2},{"dur":-1,"n":8}]},"delta":true}` + "\n"
	if string(last) != want {
		t.Fatalf("last frame %s, want %s", last, want)
	}
	t.Logf("hit %.1f, miss %.1f allocations", hit, miss)
	if raceEnabled {
		return
	}
	// 0 on an amd64 build with go1.24.
	if hit > 1 {
		t.Errorf("a delta frame in the memo allocates %.1f times, want ≤ 1", hit)
	}
	// 9 on an amd64 build with go1.24, as before the memo, whose entry
	// costs what the session's step array saves; a fresh delta map per
	// view, a Steps() copy per profile and a frame escaping to the heap
	// took 16.
	if miss > 9 {
		t.Errorf("a one-cluster delta frame the memo lacks allocates %.1f times, want ≤ 9", miss)
	}
}
