// Package transport exposes a CooRMv2 RMS over TCP using the
// newline-delimited JSON protocol of internal/proto. Together with
// clock.RealClock it is the "real-life prototype RMS" of §5: the simulator
// and the daemon share every line of scheduling code.
//
// The transport is backend-agnostic: it bridges connections either to a
// single rms.Server or to a federation.Federator, whose front-end routes
// each session's requests to the scheduler shard owning the target cluster.
//
// The wire is treated as unreliable by design: clients heartbeat and
// reconnect with exponential backoff (see Options), the server issues
// resume tokens so a reconnecting client reclaims its session within a
// grace window instead of being killed, calls carry idempotency tokens so
// re-sent requests are never executed twice, and every connection writes
// through a bounded queue — a stalled client is evicted (into the grace
// window) rather than ever blocking the notifier.
package transport

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coormv2/internal/federation"
	"coormv2/internal/obs"
	"coormv2/internal/proto"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/view"
)

// Server-side defaults.
const (
	// DefaultWriteQueue bounds the per-connection outbound frame queue.
	DefaultWriteQueue = 256
	// DefaultWriteTimeout bounds one frame write on a stalled connection.
	DefaultWriteTimeout = 10 * time.Second
	// drainWait bounds how long a closing connection waits for its write
	// queue to flush.
	drainWait = time.Second
	// idemCacheSize bounds the per-session idempotency result cache. A
	// client's in-flight window is far smaller; a retry of an older, evicted
	// token is refused as stale, never executed again (see outcome).
	idemCacheSize = 1024
)

// Session is the server-side session surface the transport needs. Both
// *rms.Session and *federation.Session satisfy it.
type Session interface {
	AppID() int
	Request(spec rms.RequestSpec) (request.ID, error)
	Done(id request.ID, released []int) error
	Disconnect()
}

// Backend creates application sessions: a single RMS or a federation.
type Backend interface {
	Connect(h rms.AppHandler, opts ...rms.ConnectOption) Session
}

// rmsBackend adapts *rms.Server to Backend.
type rmsBackend struct{ s *rms.Server }

func (b rmsBackend) Connect(h rms.AppHandler, opts ...rms.ConnectOption) Session {
	return b.s.Connect(h, opts...)
}

// fedBackend adapts *federation.Federator to Backend.
type fedBackend struct{ f *federation.Federator }

func (b fedBackend) Connect(h rms.AppHandler, opts ...rms.ConnectOption) Session {
	return b.f.Connect(h, opts...)
}

// serverStats are the transport's resilience counters, exported through
// Stats and the "transport" obs counter group.
type serverStats struct {
	accepted     atomic.Int64 // connections accepted
	sessions     atomic.Int64 // sessions created
	resumes      atomic.Int64 // successful session resumes
	resumeReject atomic.Int64 // resume attempts on unknown/expired tokens
	connDrops    atomic.Int64 // connections that died with a live session
	evictions    atomic.Int64 // slow-consumer evictions (write queue full)
	graceExpiry  atomic.Int64 // sessions torn down after the grace window
	oversized    atomic.Int64 // oversized client frames skipped
	unsolicited  atomic.Int64 // unsolicited error frames sent to clients
	idemReplays  atomic.Int64 // calls answered from the idempotency cache
	viewsFull    atomic.Int64 // views frames enqueued in full
	viewsDelta   atomic.Int64 // views frames enqueued as deltas
	viewsBytes   atomic.Int64 // bytes of all views frames enqueued
}

func (st *serverStats) snapshot() map[string]int64 {
	return map[string]int64{
		"conns_accepted":   st.accepted.Load(),
		"sessions":         st.sessions.Load(),
		"resumes":          st.resumes.Load(),
		"resumes_rejected": st.resumeReject.Load(),
		"conn_drops":       st.connDrops.Load(),
		"evictions":        st.evictions.Load(),
		"grace_expiries":   st.graceExpiry.Load(),
		"oversized_frames": st.oversized.Load(),
		"errors_sent":      st.unsolicited.Load(),
		"idem_replays":     st.idemReplays.Load(),

		"views_full_frames":  st.viewsFull.Load(),
		"views_delta_frames": st.viewsDelta.Load(),
		"views_bytes":        st.viewsBytes.Load(),
	}
}

// Server accepts TCP connections and bridges them to backend sessions.
type Server struct {
	backend Backend
	ln      net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	sessions map[string]*wireSession // resume token → session
	closed   bool
	wg       sync.WaitGroup

	stats   serverStats
	hResume *obs.Histogram

	// Logf logs transport events; defaults to log.Printf. Tests silence it.
	Logf func(format string, args ...any)

	// Workers, when positive, bounds how many connections are served
	// concurrently: Serve dispatches accepted connections to a fixed pool
	// of that many handler goroutines. A connection occupies its worker
	// for the whole application session (RMS sessions are long-lived), so
	// this is an admission limit on concurrent applications: connections
	// beyond the bound wait unserved — without a Connected reply — until a
	// running session ends, like jobs in a batch queue. Zero keeps the
	// one-goroutine-per-connection behaviour (no admission limit). Set
	// before calling Serve.
	Workers int

	// MaxFrame caps received frame sizes in bytes (0 = DefaultMaxFrame).
	// An oversized client frame is skipped in place and reported back as
	// a structured unsolicited error; the session survives.
	MaxFrame int

	// WriteQueue bounds each connection's outbound frame queue (0 =
	// DefaultWriteQueue). A full queue marks the client a slow consumer:
	// its connection is evicted — the notifier never blocks — and the
	// session enters the grace window for the client to resume.
	WriteQueue int

	// Grace is how long a session whose connection dropped without a Bye
	// survives awaiting a resume. Zero disables resume: a dropped
	// connection tears its session down immediately (the pre-resilience
	// behaviour). Set before calling Serve.
	Grace time.Duration

	// Obs, when set, records transport resilience telemetry: the
	// "transport" counter group, the "transport.resume_seconds" histogram
	// (connection drop → resume), and EvConnDrop/EvResume events. Set
	// before calling Serve.
	Obs *obs.Registry
}

// NewServer wraps a single RMS server. Call Serve to start accepting.
func NewServer(r *rms.Server) *Server { return NewBackendServer(rmsBackend{r}) }

// NewFederatedServer wraps a federation front-end: every accepted
// connection becomes a federated session whose requests are routed to the
// shard owning their target cluster.
func NewFederatedServer(f *federation.Federator) *Server {
	return NewBackendServer(fedBackend{f})
}

// NewBackendServer wraps any session backend.
func NewBackendServer(b Backend) *Server {
	return &Server{
		backend:  b,
		conns:    make(map[net.Conn]struct{}),
		sessions: make(map[string]*wireSession),
		Logf:     log.Printf,
	}
}

// Stats returns the transport's resilience counters.
func (s *Server) Stats() map[string]int64 { return s.stats.snapshot() }

func (s *Server) maxFrame() int {
	if s.MaxFrame > 0 {
		return s.MaxFrame
	}
	return DefaultMaxFrame
}

func (s *Server) writeQueue() int {
	if s.WriteQueue > 0 {
		return s.WriteQueue
	}
	return DefaultWriteQueue
}

// Listen binds the given address ("host:port"; use ":0" for an ephemeral
// port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: %w", err)
	}
	s.ln = ln
	return ln.Addr().String(), nil
}

// Serve accepts connections until Close is called. It returns nil on a
// clean shutdown. With Workers > 0 a fixed pool of handler goroutines
// serves the connections (see Workers for the admission semantics);
// otherwise each connection gets its own goroutine.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("transport: Serve before Listen")
	}
	if s.Obs != nil {
		s.hResume = s.Obs.Hist("transport.resume_seconds")
		s.Obs.RegisterCounters("transport", s.stats.snapshot)
	}
	var queue chan net.Conn
	if s.Workers > 0 {
		queue = make(chan net.Conn)
		for i := 0; i < s.Workers; i++ {
			go func() {
				for conn := range queue {
					s.handle(conn)
					s.wg.Done()
				}
			}()
		}
		defer close(queue)
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			// Close ran between Accept and registration; it will never see
			// this connection, so drop it here instead of leaking a handler
			// Close cannot wait for.
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.stats.accepted.Add(1)
		s.wg.Add(1)
		if queue != nil {
			queue <- conn
			continue
		}
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, tears down every session (detached ones
// included), and closes all live connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	sessions := make([]*wireSession, 0, len(s.sessions))
	for _, ws := range s.sessions {
		sessions = append(sessions, ws)
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	for _, ws := range sessions {
		ws.teardown()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// unregister forgets a session's resume token.
func (s *Server) unregister(token string) {
	s.mu.Lock()
	delete(s.sessions, token)
	s.mu.Unlock()
}

// lookupSession resolves a resume token to its live session.
func (s *Server) lookupSession(token string) *wireSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[token]
}

// newToken mints an unguessable resume token.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("transport: token entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// connWriter is one connection's bounded outbound queue plus its writer
// goroutine. Enqueues never block; a full queue is the slow-consumer
// signal that evicts the connection.
type connWriter struct {
	conn    net.Conn
	timeout time.Duration

	mu     sync.Mutex
	ch     chan []byte
	closed bool
	done   chan struct{}
}

func newConnWriter(conn net.Conn, queueCap int, timeout time.Duration) *connWriter {
	w := &connWriter{
		conn:    conn,
		timeout: timeout,
		ch:      make(chan []byte, queueCap),
		done:    make(chan struct{}),
	}
	go w.run()
	return w
}

func (w *connWriter) run() {
	defer close(w.done)
	var failed bool
	for data := range w.ch {
		if failed {
			continue // drain: the connection already broke
		}
		w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
		if _, err := w.conn.Write(data); err != nil {
			failed = true
			w.conn.Close() // the read side unblocks and handles the drop
		}
	}
}

// enqueue queues one frame. It returns false when the queue is full — the
// caller must evict the connection. Frames enqueued after finish/evict
// are silently dropped (the connection is dying; resume re-syncs state).
func (w *connWriter) enqueue(data []byte) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return true
	}
	select {
	case w.ch <- data:
		return true
	default:
		return false
	}
}

// finish stops accepting frames; the writer drains what is queued and
// exits. Idempotent.
func (w *connWriter) finish() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
	w.mu.Unlock()
}

// drainThenClose flushes the queue (bounded) and closes the connection.
func (w *connWriter) drainThenClose() {
	w.finish()
	select {
	case <-w.done:
	case <-time.After(drainWait):
	}
	w.conn.Close()
}

// evict cuts a slow consumer immediately: no drain — by definition its
// queue is full and its connection stalled.
func (w *connWriter) evict() {
	w.conn.Close()
	w.finish()
}

// callReply is the outcome of one request/done call: everything its ack or
// error frame carries except the Seq, which the responder stamps.
type callReply struct {
	typ    proto.MsgType
	reqID  int64
	reason string
}

func (r callReply) frame(seq int64) proto.Message {
	return proto.Message{Type: r.typ, Seq: seq, ReqID: r.reqID, Reason: r.reason}
}

// idemEntry caches one idempotent call outcome. done is closed when the
// reply is valid; a duplicate arriving while the original executes waits
// on it instead of re-executing.
type idemEntry struct {
	done  chan struct{}
	reply callReply
}

// wireSession is the server side of one application session across any
// number of consecutive connections. It implements rms.AppHandler (and
// rms.RequestObserver, to prune replay state in lockstep with the
// backend's own bookkeeping).
type wireSession struct {
	srv   *Server
	token string
	appID int
	sess  Session

	mu sync.Mutex
	cw *connWriter // nil while detached
	// np/p is the pair the session's view segments add up to (see
	// rms.AppHandler.OnViews), nil before the first: owned here, patched in
	// place, and sent whole as a connection's first views frame.
	np, p view.View
	// synced: cw was sent np/p, so its next views frame is a delta.
	synced    bool
	starts    map[int64][]int // started-but-unfinished requests, replayed on resume
	idem      map[int64]*idemEntry
	idemQ     []int64 // insertion order, for cache eviction
	idemFloor int64   // largest token evicted: nothing at or below it is new
	gone      bool    // torn down or killed: nothing to resume
	graceT    *time.Timer
	droppedAt time.Time
}

// enqueueLocked marshals and queues one frame on the attached connection,
// evicting it when the queue is full, and returns the frame's size. Call
// with ws.mu held — the lock makes state recording and frame ordering
// atomic against a concurrent resume replay.
func (ws *wireSession) enqueueLocked(m proto.Message) int {
	cw := ws.cw
	if cw == nil {
		return 0 // detached: state is re-delivered on resume
	}
	data, err := m.Marshal()
	if err != nil {
		ws.srv.Logf("transport: marshal: %v", err)
		return 0
	}
	if !cw.enqueue(append(data, '\n')) {
		// Slow consumer: a stalled client must never block the notifier.
		// Cut the connection; the session survives into the grace window.
		ws.srv.stats.evictions.Add(1)
		cw.evict()
	}
	return len(data) + 1
}

// deliver is enqueueLocked for callers not holding ws.mu.
func (ws *wireSession) deliver(m proto.Message) {
	ws.mu.Lock()
	ws.enqueueLocked(m)
	ws.mu.Unlock()
}

// OnViews patches the session's pair with a segment and forwards what
// changed.
func (ws *wireSession) OnViews(np, p view.View) {
	ws.mu.Lock()
	if ws.np == nil {
		ws.np, ws.p = view.New(), view.New()
	}
	ws.pushViewsLocked(proto.PatchView(ws.np, np), proto.PatchView(ws.p, p), false)
	ws.mu.Unlock()
}

// pushViewsLocked enqueues a views frame on the attached connection: the
// delta dnp/dp when the connection holds the pair as it was before the
// patch that produced them — its previous views frame brought its client
// there, since the write queue is FIFO and a connection that loses a frame
// is cut and re-synced by a resume — else the whole pair.
func (ws *wireSession) pushViewsLocked(dnp, dp proto.ViewJSON, replay bool) {
	if ws.cw == nil {
		return
	}
	delta := ws.synced
	if !delta {
		dnp, dp = proto.EncodeView(ws.np), proto.EncodeView(ws.p)
	}
	n := ws.enqueueLocked(proto.Message{
		Type:           proto.MsgViews,
		Replay:         replay,
		Delta:          delta,
		NonPreemptView: dnp,
		PreemptView:    dp,
	})
	ws.synced = n > 0 // a frame that could not be encoded breaks the chain
	if delta {
		ws.srv.stats.viewsDelta.Add(1)
	} else {
		ws.srv.stats.viewsFull.Add(1)
	}
	ws.srv.stats.viewsBytes.Add(int64(n))
}

// OnStart records and forwards a start. Recording and enqueueing share
// one critical section so a concurrent resume replay can never duplicate
// (or miss) the start.
func (ws *wireSession) OnStart(id request.ID, nodeIDs []int) {
	ws.mu.Lock()
	ws.starts[int64(id)] = nodeIDs
	ws.enqueueLocked(proto.Message{Type: proto.MsgStart, ReqID: int64(id), NodeIDs: nodeIDs})
	ws.mu.Unlock()
}

// OnKill forwards the kill and retires the session: the backend already
// tore it down, so there is nothing to resume.
func (ws *wireSession) OnKill(reason string) {
	ws.mu.Lock()
	ws.gone = true
	ws.enqueueLocked(proto.Message{Type: proto.MsgKill, Reason: reason})
	cw := ws.cw
	ws.cw = nil
	t := ws.graceT
	ws.graceT = nil
	ws.mu.Unlock()
	if t != nil {
		t.Stop()
	}
	ws.srv.unregister(ws.token)
	if cw != nil {
		// Flush the kill frame, then cut the connection to unblock the
		// session's reader. Async: OnKill may run on another session's
		// serving goroutine (the server notifies outside its lock).
		go cw.drainThenClose()
	}
}

// OnRequestFinished prunes replay state: a finished request's start can
// never need re-delivery.
func (ws *wireSession) OnRequestFinished(id request.ID) {
	ws.mu.Lock()
	delete(ws.starts, int64(id))
	ws.mu.Unlock()
}

// OnRequestsReaped prunes replay state for garbage-collected requests.
func (ws *wireSession) OnRequestsReaped(ids []request.ID) {
	ws.mu.Lock()
	for _, id := range ids {
		delete(ws.starts, int64(id))
	}
	ws.mu.Unlock()
}

// attach installs a connection writer and — in the same critical section,
// so no concurrent OnStart/OnViews can interleave — sends the connected
// frame followed by a replay of current state (latest views, every
// started-but-unfinished request, flagged Replay for client-side
// deduplication). Returns false when the session is already gone.
func (ws *wireSession) attach(cw *connWriter, connected proto.Message) bool {
	ws.mu.Lock()
	if ws.gone {
		ws.mu.Unlock()
		return false
	}
	old := ws.cw
	ws.cw, ws.synced = cw, false
	if t := ws.graceT; t != nil {
		t.Stop()
		ws.graceT = nil
	}
	var outage time.Duration
	resumed := !ws.droppedAt.IsZero() || old != nil
	if !ws.droppedAt.IsZero() {
		outage = time.Since(ws.droppedAt)
		ws.droppedAt = time.Time{}
	}
	ws.enqueueLocked(connected)
	if ws.np != nil {
		// Also on a fresh session: its first round may have pushed views
		// between the backend connect and this attach.
		ws.pushViewsLocked(nil, nil, resumed)
	}
	if resumed {
		ids := make([]int64, 0, len(ws.starts))
		for id := range ws.starts {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			ws.enqueueLocked(proto.Message{Type: proto.MsgStart, ReqID: id, NodeIDs: ws.starts[id], Replay: true})
		}
	}
	ws.mu.Unlock()
	if old != nil {
		// A half-open predecessor: replace it.
		go old.drainThenClose()
	}
	if resumed {
		ws.srv.stats.resumes.Add(1)
		ws.srv.hResume.Record(outage.Seconds())
		if ws.srv.Obs != nil {
			ws.srv.Obs.Event(obs.Event{Type: obs.EvResume, App: ws.appID, Value: outage.Seconds()})
		}
	}
	return true
}

// dropConn detaches cw (if it is still the session's current connection)
// and arms the grace window; with no grace configured the session is torn
// down immediately.
func (ws *wireSession) dropConn(cw *connWriter) {
	ws.mu.Lock()
	if ws.cw != cw || ws.gone {
		ws.mu.Unlock()
		return
	}
	ws.cw = nil
	ws.droppedAt = time.Now()
	grace := ws.srv.Grace
	if grace > 0 {
		ws.graceT = time.AfterFunc(grace, ws.expireGrace)
	}
	ws.mu.Unlock()
	ws.srv.stats.connDrops.Add(1)
	if ws.srv.Obs != nil {
		ws.srv.Obs.Event(obs.Event{Type: obs.EvConnDrop, App: ws.appID})
	}
	if grace <= 0 {
		ws.teardown()
	}
}

// expireGrace fires when the grace window elapsed without a resume: the
// session is handed to the existing teardown machinery (requests reaped,
// resources freed — exactly what a vanished in-process application gets).
func (ws *wireSession) expireGrace() {
	ws.mu.Lock()
	stale := ws.cw != nil || ws.gone // resumed or already down
	ws.mu.Unlock()
	if stale {
		return
	}
	ws.srv.stats.graceExpiry.Add(1)
	ws.teardown()
}

// teardown retires the session: timer stopped, token forgotten, backend
// session disconnected (releasing every resource), connection drained and
// closed. Idempotent.
func (ws *wireSession) teardown() {
	ws.mu.Lock()
	if ws.gone {
		ws.mu.Unlock()
		return
	}
	ws.gone = true
	cw := ws.cw
	ws.cw = nil
	t := ws.graceT
	ws.graceT = nil
	ws.mu.Unlock()
	if t != nil {
		t.Stop()
	}
	if cw != nil {
		go cw.drainThenClose()
	}
	ws.srv.unregister(ws.token)
	ws.sess.Disconnect()
}

// sendRaw writes one frame directly, outside any writer queue — for
// rejections before a session exists.
func (s *Server) sendRaw(conn net.Conn, m proto.Message) {
	data, err := m.Marshal()
	if err != nil {
		return
	}
	conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	conn.Write(append(data, '\n'))
}

func (s *Server) handle(conn net.Conn) {
	var cw *connWriter
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if cw != nil {
			cw.finish()
			select {
			case <-cw.done:
			case <-time.After(drainWait):
			}
		}
		conn.Close()
	}()

	fr := newFrameReader(conn, s.maxFrame())

	// The first frame must be a connect (fresh or resuming).
	line, err := fr.next()
	if err != nil {
		return
	}
	m, err := proto.Unmarshal(line)
	if err != nil || m.Type != proto.MsgConnect {
		s.stats.unsolicited.Add(1)
		s.sendRaw(conn, proto.Message{Type: proto.MsgError, Reason: "expected connect"})
		return
	}

	var ws *wireSession
	if m.Resume != "" {
		ws = s.lookupSession(m.Resume)
		if ws == nil {
			s.stats.resumeReject.Add(1)
			s.sendRaw(conn, proto.Message{Type: proto.MsgKill,
				Reason: "resume rejected: unknown or expired session"})
			return
		}
	} else {
		ws = s.newSession(m)
		if ws == nil {
			s.sendRaw(conn, proto.Message{Type: proto.MsgError, Reason: "server closing"})
			return
		}
	}
	cw = newConnWriter(conn, s.writeQueue(), DefaultWriteTimeout)
	connected := proto.Message{Type: proto.MsgConnected, AppID: ws.appID, Resume: ws.token}
	if !ws.attach(cw, connected) {
		s.stats.resumeReject.Add(1)
		s.sendRaw(conn, proto.Message{Type: proto.MsgKill,
			Reason: "resume rejected: session terminated"})
		return
	}

	if bye := s.readCalls(ws, fr); bye {
		ws.teardown()
		return
	}
	ws.dropConn(cw)
}

// newSession mints a session: resume token, backend connect (with the
// wire-carried connect options), registry entry. Returns nil when the
// server is closing.
func (s *Server) newSession(m *proto.Message) *wireSession {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	ws := &wireSession{
		srv:    s,
		token:  newToken(),
		starts: make(map[int64][]int),
		idem:   make(map[int64]*idemEntry),
	}
	var opts []rms.ConnectOption
	if m.Tenant != "" {
		opts = append(opts, rms.WithTenant(m.Tenant))
	}
	ws.sess = s.backend.Connect(ws, opts...)
	ws.appID = ws.sess.AppID()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ws.sess.Disconnect()
		return nil
	}
	s.sessions[ws.token] = ws
	s.mu.Unlock()
	s.stats.sessions.Add(1)
	return ws
}

// readCalls serves one connection's application calls until it ends.
// Returns true on a clean Bye, false on a connection drop.
func (s *Server) readCalls(ws *wireSession, fr *frameReader) (bye bool) {
	for {
		line, err := fr.next()
		if err != nil {
			var ofe *OversizedFrameError
			if errors.As(err, &ofe) {
				// The reader skipped the oversized line; the stream is in
				// sync and the session survives. Report it.
				s.stats.oversized.Add(1)
				s.stats.unsolicited.Add(1)
				ws.deliver(proto.Message{Type: proto.MsgError, Reason: ofe.Error()})
				continue
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.Logf("transport: read: %v", err)
			}
			return false
		}
		m, err := proto.Unmarshal(line)
		if err != nil {
			s.stats.unsolicited.Add(1)
			ws.deliver(proto.Message{Type: proto.MsgError, Reason: err.Error()})
			continue
		}
		switch m.Type {
		case proto.MsgPing:
			ws.deliver(proto.Message{Type: proto.MsgPong, Seq: m.Seq})

		case proto.MsgRequest, proto.MsgDone:
			s.serveCall(ws, m)

		case proto.MsgBye:
			return true

		default:
			ws.deliver(proto.Message{Type: proto.MsgError, Seq: m.Seq,
				Reason: fmt.Sprintf("unexpected message %q", m.Type)})
		}
	}
}

// serveCall answers one request/done call.
func (s *Server) serveCall(ws *wireSession, m *proto.Message) {
	ws.deliver(s.outcome(ws, m).frame(m.Seq))
}

// outcome executes one request/done call with idempotent-retry semantics:
// the first arrival of an idem token executes and caches the outcome; any
// retry (same token, re-sent after a reconnect because the ack may have died
// with the old connection) waits for and replays the cached outcome instead
// of executing twice.
//
// At its bound the cache evicts its oldest finished outcome — never one whose
// call is still executing, whose retry must find it — and remembers the
// largest evicted token. Tokens increase per session, so an uncached token
// at or below that floor is a retry of an evicted call: it is refused as
// stale rather than executed a second time.
func (s *Server) outcome(ws *wireSession, m *proto.Message) callReply {
	if m.Idem == 0 {
		return s.invoke(ws, m)
	}
	ws.mu.Lock()
	if e, ok := ws.idem[m.Idem]; ok {
		ws.mu.Unlock()
		<-e.done // the original may still be executing
		s.stats.idemReplays.Add(1)
		return e.reply
	}
	if m.Idem <= ws.idemFloor {
		ws.mu.Unlock()
		return callReply{typ: proto.MsgError, reason: fmt.Sprintf(
			"transport: stale idempotency token %d: outcomes up to %d are no longer cached", m.Idem, ws.idemFloor)}
	}
	e := &idemEntry{done: make(chan struct{})}
	ws.idem[m.Idem] = e
	ws.idemQ = append(ws.idemQ, m.Idem)
	if len(ws.idemQ) > idemCacheSize {
		ws.evictIdemLocked()
	}
	ws.mu.Unlock()

	e.reply = s.invoke(ws, m)
	close(e.done)
	return e.reply
}

// evictIdemLocked drops the oldest finished outcome from the cache; with
// every call still executing it drops nothing.
func (ws *wireSession) evictIdemLocked() {
	for i, tok := range ws.idemQ {
		select {
		case <-ws.idem[tok].done:
		default:
			continue
		}
		delete(ws.idem, tok)
		ws.idemFloor = max(ws.idemFloor, tok)
		copy(ws.idemQ[1:i+1], ws.idemQ[:i]) // keep the executing calls ahead of it
		ws.idemQ = ws.idemQ[1:]
		return
	}
}

// invoke executes one backend call and shapes its ack or error.
func (s *Server) invoke(ws *wireSession, m *proto.Message) callReply {
	switch m.Type {
	case proto.MsgRequest:
		spec, err := m.DecodeRequestSpec()
		if err != nil {
			return callReply{typ: proto.MsgError, reason: err.Error()}
		}
		id, err := ws.sess.Request(spec)
		if err != nil {
			return callReply{typ: proto.MsgError, reason: err.Error()}
		}
		return callReply{typ: proto.MsgReqAck, reqID: int64(id)}

	default: // proto.MsgDone
		if err := ws.sess.Done(request.ID(m.ReqID), m.Released); err != nil {
			return callReply{typ: proto.MsgError, reason: err.Error()}
		}
		ws.mu.Lock()
		delete(ws.starts, m.ReqID)
		ws.mu.Unlock()
		return callReply{typ: proto.MsgReqAck, reqID: m.ReqID}
	}
}
