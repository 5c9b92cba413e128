package transport

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/federation"
	"coormv2/internal/netchaos"
	"coormv2/internal/proto"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// resilApp extends clientApp with start counts (to catch duplicate
// delivery) and unsolicited-error capture.
type resilApp struct {
	mu         sync.Mutex
	views      int
	startCount map[request.ID]int
	killed     string
	errs       []string
}

func newResilApp() *resilApp {
	return &resilApp{startCount: make(map[request.ID]int)}
}

func (a *resilApp) OnViews(np, p view.View) {
	a.mu.Lock()
	a.views++
	a.mu.Unlock()
}

func (a *resilApp) OnStart(id request.ID, ids []int) {
	a.mu.Lock()
	a.startCount[id]++
	a.mu.Unlock()
}

func (a *resilApp) OnKill(reason string) {
	a.mu.Lock()
	a.killed = reason
	a.mu.Unlock()
}

func (a *resilApp) OnError(reason string) {
	a.mu.Lock()
	a.errs = append(a.errs, reason)
	a.mu.Unlock()
}

// waitFor polls until pred (evaluated under the lock) is true.
func (a *resilApp) waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	eventually(t, what, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return pred()
	})
}

func (a *resilApp) waitStart(t *testing.T, id request.ID) {
	t.Helper()
	a.waitFor(t, fmt.Sprintf("start of request %d", id), func() bool { return a.startCount[id] > 0 })
}

func (a *resilApp) duplicateStarts() []request.ID {
	a.mu.Lock()
	defer a.mu.Unlock()
	var dups []request.ID
	for id, n := range a.startCount {
		if n > 1 {
			dups = append(dups, id)
		}
	}
	return dups
}

// startResilientServer starts a one-shard transport server with a
// resume grace window on clk (nil: the real clock).
func startResilientServer(t *testing.T, grace time.Duration, clk clock.Clock) (*Server, string) {
	t.Helper()
	r := federation.New(federation.Config{
		Clusters:        map[view.ClusterID]int{c0: 16},
		ReschedInterval: 0.01,
		Clock:           clock.NewRealClock(),
	})
	srv := NewServer(r)
	srv.Logf = func(string, ...any) {}
	srv.Grace = grace
	if clk != nil {
		srv.clk = clk
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr
}

// TestReconnectResumeAfterSever is the core resume path: sever the wire
// mid-session, the client reconnects and resumes, and a request issued
// across the outage is acked exactly once with no duplicate starts.
func TestReconnectResumeAfterSever(t *testing.T) {
	srv, backendAddr := startResilientServer(t, 5*time.Second, nil)
	p := netchaos.NewProxy(backendAddr)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	app := newResilApp()
	c, err := Dial(addr, app, Options{
		Reconnect:       true,
		ReconnectWindow: 8 * time.Second,
		BackoffBase:     5 * time.Millisecond,
		BackoffMax:      50 * time.Millisecond,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id1, err := c.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 30, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	app.waitStart(t, id1)

	p.Sever()

	// The next call rides the reconnect: it parks, is re-sent on the
	// fresh connection, and must come back acked exactly once.
	id2, err := c.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 30, Type: request.NonPreempt})
	if err != nil {
		t.Fatalf("request across outage: %v", err)
	}
	app.waitStart(t, id2)

	if got := c.Reconnects(); got < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", got)
	}
	if dups := app.duplicateStarts(); len(dups) > 0 {
		t.Fatalf("duplicate starts for requests %v", dups)
	}
	if err := c.Done(id1, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Done(id2, nil); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st["resumes"] < 1 {
		t.Fatalf("server stats: resumes = %d, want >= 1 (%v)", st["resumes"], st)
	}
	if st["conn_drops"] < 1 {
		t.Fatalf("server stats: conn_drops = %d, want >= 1", st["conn_drops"])
	}
}

// TestGraceExpiryTearsDownSession pins the other side of the window: a
// client that stays away longer than the grace window is recovered by the
// ordinary disconnect machinery, and its resume attempt is rejected with
// a kill.
func TestGraceExpiryTearsDownSession(t *testing.T) {
	clk := &stepClock{}
	srv, backendAddr := startResilientServer(t, 50*time.Millisecond, clk)
	p := netchaos.NewProxy(backendAddr)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	app := newResilApp()
	c, err := Dial(addr, app, Options{
		Reconnect:       true,
		ReconnectWindow: 5 * time.Second,
		BackoffBase:     5 * time.Millisecond,
		BackoffMax:      50 * time.Millisecond,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 30, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}

	// Partition, step the server's clock past the grace window once it has
	// seen the drop, then heal: the client's resume must be rejected and
	// surface as a kill.
	p.SetPartitioned(true)
	eventually(t, "the server to see the drop", func() bool { return srv.Stats()["conn_drops"] >= 1 })
	clk.step(0.04)
	if n := srv.Stats()["grace_expiries"]; n != 0 {
		t.Fatalf("grace_expiries = %d inside the window", n)
	}
	clk.step(0.02)
	p.SetPartitioned(false)
	app.waitFor(t, "OnKill after grace expiry", func() bool { return app.killed != "" })
	if _, err := c.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 1, Type: request.NonPreempt}); err == nil {
		t.Fatal("request succeeded on a killed session")
	}
	st := srv.Stats()
	if st["grace_expiries"] < 1 {
		t.Fatalf("grace_expiries = %d, want >= 1 (%v)", st["grace_expiries"], st)
	}
	if st["resumes_rejected"] < 1 {
		t.Fatalf("resumes_rejected = %d, want >= 1 (%v)", st["resumes_rejected"], st)
	}
}

// muteServer accepts one connection, handshakes, and then never sends
// again; it drains its input so the client's writes keep succeeding.
func muteServer(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		fr := newFrameReader(conn, 0)
		if _, err := fr.next(); err != nil {
			return
		}
		conn.Write([]byte(`{"type":"connected","app_id":1,"resume":"tok"}` + "\n"))
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				conn.Close()
				return
			}
		}
	}()
	return ln.Addr().String()
}

// callOnStepClock dials a mute server on a stepped clock and starts a
// request; it returns once the call waits, with the channel its error
// arrives on.
func callOnStepClock(t *testing.T, o Options) (*Client, *stepClock, <-chan error) {
	clk := &stepClock{}
	c, err := dial(muteServer(t), newResilApp(), o, clk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	done := make(chan error, 1)
	go func() {
		_, err := c.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 1, Type: request.NonPreempt})
		done <- err
	}()
	eventually(t, "the call to wait", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.waiters) == 1
	})
	return c, clk, done
}

// TestHeartbeatDetectsSilentPeer pins liveness detection: a server that
// handshakes and then goes mute (never answers pings) must be declared
// dead by the heartbeat within the miss budget, not hang forever. The
// client's clock moves five heartbeat intervals, far short of the call
// deadline.
func TestHeartbeatDetectsSilentPeer(t *testing.T) {
	_, clk, done := callOnStepClock(t, Options{HeartbeatInterval: 20 * time.Millisecond, CallTimeout: 5 * time.Second})
	for i := 0; i < 5; i++ {
		clk.step(0.02)
	}
	select {
	case err := <-done:
		if err == nil || errors.Is(err, ErrCallTimeout) {
			t.Fatalf("call against a mute server: %v, want a dead connection", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the heartbeat never declared the mute server dead")
	}
}

// TestCallDeadline pins Options.CallTimeout: a call the server never answers
// fails with ErrCallTimeout once the client's clock passes its deadline, and
// not before.
func TestCallDeadline(t *testing.T) {
	c, clk, done := callOnStepClock(t, Options{CallTimeout: time.Second})
	clk.step(0.9)
	select {
	case err := <-done:
		t.Fatalf("call returned before its deadline: %v", err)
	default:
	}
	clk.step(0.2) // the deadline answers the call on this goroutine
	if err := <-done; !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("call past its deadline: %v, want ErrCallTimeout", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.waiters) != 0 {
		t.Fatalf("%d waiters left after the deadline", len(c.waiters))
	}
}

// TestIdempotentRetryDeduplicated drives the server's idempotency cache
// directly: the same request frame re-sent with its original idem token
// (as a reconnecting client does) must not execute twice.
func TestIdempotentRetryDeduplicated(t *testing.T) {
	srv, addr := startResilientServer(t, time.Second, nil)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := newFrameReader(conn, 0)
	send := func(s string) {
		t.Helper()
		if _, err := conn.Write([]byte(s + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	// read returns the next non-views/start frame.
	read := func() string {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			line, err := fr.next()
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			s := string(line)
			if !contains(s, `"views"`) && !contains(s, `"start"`) {
				return s
			}
		}
	}

	send(`{"type":"connect"}`)
	if s := read(); !contains(s, `"connected"`) {
		t.Fatalf("handshake reply = %s", s)
	}
	req := `{"type":"request","seq":1,"idem":7,"cluster":"c0","n":1,"duration":30,"req_type":"NP"}`
	send(req)
	ack1 := read()
	if !contains(ack1, `"req-ack"`) {
		t.Fatalf("first ack = %s", ack1)
	}
	// Retry with the same idem token but a fresh seq, as the client's
	// reconnect replay does.
	send(`{"type":"request","seq":2,"idem":7,"cluster":"c0","n":1,"duration":30,"req_type":"NP"}`)
	ack2 := read()
	if !contains(ack2, `"req-ack"`) || !contains(ack2, `"seq":2`) {
		t.Fatalf("retry ack = %s", ack2)
	}
	if st := srv.Stats(); st["idem_replays"] != 1 {
		t.Fatalf("idem_replays = %d, want 1", st["idem_replays"])
	}

	// The cache keeps the outcome, not the frame: a verbatim re-send — of an
	// acked request, and of a done the backend refused — is answered with
	// the very bytes of the first answer.
	send(req)
	if again := read(); again != ack1 {
		t.Fatalf("replayed ack = %s, first = %s", again, ack1)
	}
	done := `{"type":"done","seq":3,"idem":8,"req_id":999}`
	send(done)
	err1 := read()
	if !contains(err1, `"error"`) || !contains(err1, `"seq":3`) || !contains(err1, "999") {
		t.Fatalf("done of an unknown request answered %s", err1)
	}
	send(done)
	if again := read(); again != err1 {
		t.Fatalf("replayed error = %s, first = %s", again, err1)
	}
	if st := srv.Stats(); st["idem_replays"] != 3 {
		t.Fatalf("idem_replays = %d, want 3", st["idem_replays"])
	}
}

// countingSession counts Done calls per request ID; a call on blockOn waits
// for release.
type countingSession struct {
	mu      sync.Mutex
	calls   map[request.ID]int
	blockOn request.ID
	entered chan struct{}
	release chan struct{}
}

func (c *countingSession) AppID() int                                  { return 1 }
func (c *countingSession) Request(rms.RequestSpec) (request.ID, error) { return 0, nil }
func (c *countingSession) Disconnect()                                 {}
func (c *countingSession) Done(id request.ID, _ []int) error {
	c.mu.Lock()
	c.calls[id]++
	c.mu.Unlock()
	if id == c.blockOn {
		close(c.entered)
		<-c.release
	}
	return nil
}

// TestIdemCacheAtItsBound pins the idempotency cache at idemCacheSize: a
// retry of a token the cache has evicted is refused as stale instead of being
// executed a second time, and a call still executing is never the one
// evicted — its retry waits for the one execution and replays its outcome.
func TestIdemCacheAtItsBound(t *testing.T) {
	srv := NewBackendServer(nil)
	srv.Logf = func(string, ...any) {}
	const pinned = idemCacheSize + 2
	sess := &countingSession{calls: make(map[request.ID]int), blockOn: pinned,
		entered: make(chan struct{}), release: make(chan struct{})}
	ws := &wireSession{srv: srv, token: "tok", sess: sess,
		starts: make(map[int64][]int), idem: make(map[int64]*idemEntry)}
	done := func(tok int64) callReply {
		return srv.outcome(ws, &proto.Message{Type: proto.MsgDone, Idem: tok, ReqID: tok})
	}

	for tok := int64(1); tok <= idemCacheSize+1; tok++ {
		if r := done(tok); r.typ != proto.MsgReqAck {
			t.Fatalf("call %d answered %+v", tok, r)
		}
	}
	if r := done(1); r.typ != proto.MsgError || !strings.Contains(r.reason, "stale idempotency token 1") {
		t.Fatalf("retry of evicted token 1 answered %+v, want a stale-token error", r)
	}
	if r := done(2); r.typ != proto.MsgReqAck || r.reqID != 2 {
		t.Fatalf("retry of cached token 2 answered %+v, want its ack replayed", r)
	}

	// A call that is still executing while the cache turns over completely.
	first := make(chan callReply, 1)
	go func() { first <- done(pinned) }()
	<-sess.entered
	for tok := int64(pinned + 1); tok <= pinned+idemCacheSize+1; tok++ {
		done(tok)
	}
	retry := make(chan callReply, 1)
	go func() { retry <- done(pinned) }()
	close(sess.release)
	if a, b := <-first, <-retry; a != b || a.typ != proto.MsgReqAck || a.reqID != pinned {
		t.Fatalf("executing call answered %+v, its retry %+v; want the same ack", a, b)
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	for id, n := range sess.calls {
		if n != 1 {
			t.Errorf("request %d executed %d times, want exactly once", id, n)
		}
	}
	if len(ws.idem) > idemCacheSize+1 || len(ws.idem) != len(ws.idemQ) {
		t.Errorf("cache holds %d outcomes (%d queued), bound %d", len(ws.idem), len(ws.idemQ), idemCacheSize)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestSlowConsumerEvicted pins the bounded-write-queue guarantee: a
// consumer that stops reading fills its queue and is evicted — the
// notifier (here: OnViews) never blocks. net.Pipe is unbuffered, so the
// writer goroutine wedges on the very first frame, exactly like a client
// whose socket buffers are full.
func TestSlowConsumerEvicted(t *testing.T) {
	srv := NewBackendServer(nil)
	srv.Logf = func(string, ...any) {}
	stalled, peer := net.Pipe()
	t.Cleanup(func() { stalled.Close(); peer.Close() })

	ws := &wireSession{
		srv:    srv,
		token:  "tok",
		starts: make(map[int64][]int),
		idem:   make(map[int64]*idemEntry),
	}
	cw := newConnWriter(stalled, 2, 10*time.Second)
	ws.cw = cw

	// Nobody reads peer: frame 1 wedges in the writer, frames 2–3 fill
	// the queue, frame 4 must trigger the eviction — and every OnViews
	// call must return promptly regardless.
	for i := 0; i < 4; i++ {
		done := make(chan struct{})
		go func() {
			ws.OnViews(view.New(), view.New())
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("OnViews blocked on frame %d (the notifier must never block)", i+1)
		}
	}
	if got := srv.Stats()["evictions"]; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// The evicted writer is closed: further enqueues are silent drops.
	if !cw.enqueue([]byte("x\n")) {
		t.Fatal("enqueue after eviction should report success (silent drop)")
	}
	select {
	case <-cw.done:
	case <-time.After(2 * time.Second):
		t.Fatal("writer goroutine did not exit after eviction")
	}
}

// goneSession closes gone once the backend session is disconnected.
type goneSession struct {
	Session
	gone chan struct{}
}

func (g *goneSession) Disconnect() {
	g.Session.Disconnect()
	close(g.gone)
}

// TestEvictionWithUndeliveredStart pins the write queue at its bound with a
// Start in it. The client stops reading, a Start waits in its full queue,
// and the views frame of the same round evicts the connection: the Start is
// never delivered. A client that resumes within the grace window is sent it
// again exactly once, flagged Replay. One that does not is torn down by the
// grace timer the way a vanished application is, and the started request's
// nodes return to the pool.
func TestEvictionWithUndeliveredStart(t *testing.T) {
	for _, resume := range []bool{true, false} {
		t.Run(fmt.Sprintf("resume=%v", resume), func(t *testing.T) { testEvictionWithUndeliveredStart(t, resume) })
	}
}

func testEvictionWithUndeliveredStart(t *testing.T, resume bool) {
	// Rounds run only through ScheduleNow: the simulated clock never runs.
	r := federation.New(federation.Config{Clusters: map[view.ClusterID]int{c0: 4}, Clock: clock.SimClock{E: sim.NewEngine()}})
	srv := NewServer(r)
	srv.Logf = func(string, ...any) {}
	srv.Grace = time.Hour
	if !resume {
		srv.Grace = time.Millisecond
	}
	ws := &wireSession{srv: srv, token: "tok", starts: make(map[int64][]int), idem: make(map[int64]*idemEntry)}
	sess := &goneSession{Session: r.Connect(ws), gone: make(chan struct{})}
	ws.sess, ws.appID = sess, sess.AppID()
	srv.mu.Lock()
	srv.sessions[ws.token] = ws
	srv.mu.Unlock()

	// Nobody reads peer: the first frame wedges the writer, and the queue
	// holds one more.
	stalled, peer := net.Pipe()
	defer peer.Close()
	cw := newConnWriter(stalled, 1, 10*time.Second)
	ws.mu.Lock()
	ws.cw = cw
	ws.mu.Unlock()
	ws.OnViews(view.New(), view.New())
	for len(cw.ch) > 0 {
		runtime.Gosched() // until the writer holds the frame
	}
	id, err := sess.Request(rms.RequestSpec{Cluster: c0, N: 2, Duration: 100, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	r.Shard(0).ScheduleNow() // the round's Start takes the free slot, its views frame finds none
	if got := srv.Stats()["evictions"]; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if n, err := peer.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("the evicted client read %d bytes (%v), want none", n, err)
	}
	ws.dropConn(cw) // what the connection's reader does once the socket is gone

	if !resume {
		select {
		case <-sess.gone:
		case <-time.After(10 * time.Second):
			t.Fatal("the grace window expired without a teardown")
		}
		if got := srv.Stats()["grace_expiries"]; got != 1 {
			t.Errorf("grace_expiries = %d, want 1", got)
		}
		if srv.lookupSession(ws.token) != nil {
			t.Error("the torn-down session can still be resumed")
		}
		if held := r.Shard(0).ClusterLoads()[0].Held; held != 0 {
			t.Errorf("%d nodes still held after the teardown, want 0", held)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Error(err)
		}
		return
	}

	srvEnd, cliEnd := net.Pipe()
	cw2 := newConnWriter(srvEnd, 16, 10*time.Second)
	lines := make(chan []string, 1)
	go func() {
		var got []string
		sc := bufio.NewScanner(cliEnd)
		for sc.Scan() {
			got = append(got, sc.Text())
		}
		lines <- got
	}()
	if !ws.attach(cw2, proto.Message{Type: proto.MsgConnected, AppID: ws.appID, Resume: ws.token}) {
		t.Fatal("resume within the grace window refused")
	}
	cw2.drainThenClose()
	starts := 0
	for _, line := range <-lines {
		m, err := proto.Unmarshal([]byte(line))
		if err != nil {
			t.Fatalf("frame %s: %v", line, err)
		}
		if m.Type == proto.MsgStart {
			starts++
			if m.ReqID != int64(id) || !m.Replay {
				t.Errorf("start frame %s, want request %d flagged replay", line, id)
			}
		}
	}
	if starts != 1 {
		t.Errorf("the resumed connection carried %d start frames, want 1", starts)
	}
	ws.teardown()
}

// runChaosScenario runs one seeded client-vs-netchaos session and returns
// a fingerprint of everything that matters: the fault trace, the acked
// request IDs, and the per-request start counts. Same seed ⇒ same hash.
func runChaosScenario(t *testing.T, seed int64) uint64 {
	t.Helper()
	_, backendAddr := startResilientServer(t, 10*time.Second, nil)
	p := netchaos.NewProxy(backendAddr)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	plan := netchaos.Plan(netchaos.Config{
		Seed:        seed,
		MeanBetween: 0.15,
		MeanDur:     0.04,
		Horizon:     2.0,
		MaxFaults:   8,
	})

	app := newResilApp()
	c, err := Dial(addr, app, Options{
		Reconnect:         true,
		ReconnectWindow:   15 * time.Second,
		BackoffBase:       5 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		CallTimeout:       20 * time.Second,
		Seed:              seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p.Start(plan, 2*time.Millisecond)

	// A sequential workload across the whole fault schedule: every acked
	// request must start exactly once and complete, faults or not.
	const jobs = 10
	acked := make([]request.ID, 0, jobs)
	for i := 0; i < jobs; i++ {
		id, err := c.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 60, Type: request.NonPreempt})
		if err != nil {
			t.Fatalf("job %d: request: %v (reconnects=%d)", i, err, c.Reconnects())
		}
		acked = append(acked, id)
		app.waitStart(t, id)
		if err := c.Done(id, nil); err != nil {
			t.Fatalf("job %d: done: %v", i, err)
		}
		time.Sleep(20 * time.Millisecond) // let faults interleave the workload
	}

	if dups := app.duplicateStarts(); len(dups) > 0 {
		t.Fatalf("duplicate starts for %v", dups)
	}

	sort.Slice(acked, func(i, j int) bool { return acked[i] < acked[j] })
	h := fnv.New64a()
	for _, f := range plan {
		fmt.Fprintln(h, f)
	}
	for _, id := range acked {
		fmt.Fprintf(h, "acked=%d starts=1\n", id)
	}
	return h.Sum64()
}

// TestChaosMatrixDeterministic is the acceptance test: across a seeded
// netchaos schedule the client loses zero acknowledged requests and sees
// no duplicate starts, and the run's event hash is identical for
// identical seeds.
func TestChaosMatrixDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("netchaos matrix is multi-second")
	}
	seeds := []int64{1, 2}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h1 := runChaosScenario(t, seed)
			h2 := runChaosScenario(t, seed)
			if h1 != h2 {
				t.Fatalf("same seed, different event hashes: %#x vs %#x", h1, h2)
			}
		})
	}
}

// TestViewsReplayedOnResume pins state re-sync: after an outage the
// client receives the current views again (flagged as replay, but
// delivered — a resumed client must not act on stale views).
func TestViewsReplayedOnResume(t *testing.T) {
	_, backendAddr := startResilientServer(t, 5*time.Second, nil)
	p := netchaos.NewProxy(backendAddr)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	app := newResilApp()
	c, err := Dial(addr, app, Options{
		Reconnect:       true,
		ReconnectWindow: 8 * time.Second,
		BackoffBase:     5 * time.Millisecond,
		BackoffMax:      50 * time.Millisecond,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Wait for at least one live views push, then sever.
	app.waitFor(t, "views before sever", func() bool { return app.views > 0 })
	p.Sever()

	// A call forces the reconnect to finish; afterwards views flow again.
	if _, err := c.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 5, Type: request.NonPreempt}); err != nil {
		t.Fatal(err)
	}
	if c.Reconnects() < 1 {
		t.Fatal("no reconnect recorded")
	}
}

// TestResumeRejectedSurfacesAsKill pins the client-side terminal path: a
// resume attempt against a server that no longer knows the session must
// fail pending calls with ResumeRejectedError and deliver OnKill.
func TestResumeRejectedSurfacesAsKill(t *testing.T) {
	// A server whose sessions never survive a drop (Grace = 0).
	_, backendAddr := startResilientServer(t, 0, nil)
	p := netchaos.NewProxy(backendAddr)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	app := newResilApp()
	c, err := Dial(addr, app, Options{
		Reconnect:       true,
		ReconnectWindow: 5 * time.Second,
		BackoffBase:     5 * time.Millisecond,
		BackoffMax:      50 * time.Millisecond,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p.Sever()
	_, err = c.Request(rms.RequestSpec{Cluster: c0, N: 1, Duration: 5, Type: request.NonPreempt})
	if err == nil {
		t.Fatal("request succeeded though the session was torn down")
	}
	var rr *ResumeRejectedError
	if !errors.As(err, &rr) {
		t.Fatalf("error = %v, want ResumeRejectedError", err)
	}
	app.waitFor(t, "OnKill after resume rejection", func() bool { return app.killed != "" })
}
