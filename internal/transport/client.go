package transport

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/obs"
	"coormv2/internal/proto"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/view"
)

// Handler receives asynchronous RMS notifications on the client side.
// It is the client-side twin of rms.AppHandler.
type Handler interface {
	// OnViews delivers fresh views. Unlike rms.AppHandler's segments they
	// are whole: the client applies each frame to the pair it holds, so
	// every cluster with availability is listed and a cluster left out has
	// none. As with rms.AppHandler, the handler may retain them indefinitely
	// but must never modify them.
	OnViews(nonPreempt, preempt view.View)
	OnStart(id request.ID, nodeIDs []int)
	OnKill(reason string)
}

// ErrorHandler is an optional Handler extension: handlers implementing it
// are told about unsolicited server errors — error frames with no sequence
// number, which correlate with no pending call (e.g. a frame the server
// could not parse, or an oversized-frame report). Without it such errors
// are only counted (UnsolicitedErrors) instead of being dropped silently.
type ErrorHandler interface {
	OnError(reason string)
}

// ResumeRejectedError reports that the server refused to resume the
// session (the grace window expired, or the server restarted). The client
// is permanently down: pending calls fail and OnKill is delivered.
type ResumeRejectedError struct{ Reason string }

func (e *ResumeRejectedError) Error() string {
	return fmt.Sprintf("transport: resume rejected: %s", e.Reason)
}

// errSessionKilled terminates the read loop after a kill frame.
var errSessionKilled = errors.New("transport: session killed")

// callResult is the outcome delivered to a waiting call: the server's
// ack/error frame, or a connection-level error.
type callResult struct {
	m   *proto.Message
	err error
}

// pendingCall is one in-flight synchronous call. The full frame is
// retained so a reconnect can re-send it verbatim (same Seq, same Idem —
// the server deduplicates on Idem).
type pendingCall struct {
	m  proto.Message
	ch chan callResult // buffered 1; receives exactly one result
}

// Client is a CooRMv2 application endpoint speaking the TCP protocol.
// Request and Done are synchronous (they wait for the server's ack);
// notifications are dispatched to the Handler from a reader goroutine.
//
// With Options.Reconnect the client survives connection death: it
// re-dials with exponential backoff + jitter, presents its resume token,
// and the server re-attaches the session — in-flight calls are re-sent
// and deduplicated via idempotency tokens, and current views/starts are
// replayed (replayed starts the client already saw are suppressed).
type Client struct {
	addr string
	h    Handler
	o    Options
	clk  clock.Clock // call deadlines, reconnects, heartbeats; stepped in tests

	// wmu serializes frame writes; conn/w swap on reconnect.
	wmu sync.Mutex
	w   *bufio.Writer

	mu         sync.Mutex
	conn       net.Conn // current connection (for force-close); nil while down
	up         bool
	closed     bool
	killed     bool
	appID      int
	token      string
	nextSeq    int64
	nextIdem   int64
	waiters    map[int64]*pendingCall
	started    map[int64]bool // request IDs whose start was delivered
	reconnects int
	termErr    error // set under mu before failing waiters; rejects new calls
	rng        *rand.Rand

	lastRx      atomic.Uint64 // clock seconds of the last received frame, as Float64bits
	unsolicited atomic.Int64

	stop    chan struct{} // closed by Close: interrupts backoff sleeps
	dead    chan struct{} // closed when the client is permanently down
	runDone chan struct{}

	// notif decouples handler dispatch from the read loop so handlers can
	// synchronously call Request/Done (the in-process server gives the
	// same guarantee by notifying outside its lock).
	notif        chan func()
	dispatchDone chan struct{}

	hReconnect *obs.Histogram
}

// Dial connects to a CooRMv2 daemon and performs the connect handshake.
// Without opts the client runs with the zero Options: no heartbeats, no
// reconnection, no call deadline. At most one Options value is used.
func Dial(addr string, h Handler, opts ...Options) (*Client, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	return dial(addr, h, o, clock.NewRealClock())
}

// dial is Dial on the clock clk.
func dial(addr string, h Handler, o Options, clk clock.Clock) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	seed := o.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Client{
		addr:         addr,
		h:            h,
		o:            o,
		clk:          clk,
		waiters:      make(map[int64]*pendingCall),
		started:      make(map[int64]bool),
		rng:          rand.New(rand.NewSource(seed)),
		stop:         make(chan struct{}),
		dead:         make(chan struct{}),
		runDone:      make(chan struct{}),
		notif:        make(chan func(), 1024),
		dispatchDone: make(chan struct{}),
		nextSeq:      1,
		nextIdem:     1,
		hReconnect:   o.Obs.Hist("transport.reconnect_seconds"),
	}
	fr := newFrameReader(conn, o.MaxFrame)
	m, err := c.handshake(conn, fr, proto.Message{Type: proto.MsgConnect, Tenant: o.Tenant})
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.appID = m.AppID
	c.token = m.Resume
	c.attach(conn)
	go c.dispatchLoop()
	go c.run(conn, fr)
	if o.HeartbeatInterval > 0 {
		clk.AfterFunc(o.HeartbeatInterval.Seconds(), "transport.heartbeat", c.heartbeat)
	}
	return c, nil
}

// handshake writes the connect frame and reads the server's verdict, all
// under a deadline so a dead or half-open server cannot wedge the dial.
func (c *Client) handshake(conn net.Conn, fr *frameReader, m proto.Message) (*proto.Message, error) {
	data, err := m.Marshal()
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(DefaultHandshakeWait))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write(append(data, '\n')); err != nil {
		return nil, fmt.Errorf("transport: handshake write: %w", err)
	}
	line, err := fr.next()
	if err != nil {
		return nil, fmt.Errorf("transport: connection closed during handshake: %w", err)
	}
	reply, err := proto.Unmarshal(line)
	if err != nil {
		return nil, err
	}
	switch reply.Type {
	case proto.MsgConnected:
		c.lastRx.Store(math.Float64bits(c.clk.Now()))
		return reply, nil
	case proto.MsgKill, proto.MsgError:
		if m.Resume != "" {
			return nil, &ResumeRejectedError{Reason: reply.Reason}
		}
		return nil, fmt.Errorf("transport: connect rejected: %s", reply.Reason)
	default:
		return nil, fmt.Errorf("transport: handshake got %q", reply.Type)
	}
}

// attach installs a live connection (initial dial or reconnect).
func (c *Client) attach(conn net.Conn) {
	c.wmu.Lock()
	c.w = bufio.NewWriter(conn)
	c.wmu.Unlock()
	c.mu.Lock()
	c.conn = conn
	c.up = true
	c.mu.Unlock()
}

// detach marks the connection down; pending calls stay parked for a
// reconnect (or fail when the client goes permanently down).
func (c *Client) detach() {
	c.wmu.Lock()
	c.w = nil
	c.wmu.Unlock()
	c.mu.Lock()
	c.conn = nil
	c.up = false
	c.mu.Unlock()
}

// dispatchLoop delivers notifications in order, off the read goroutine.
func (c *Client) dispatchLoop() {
	defer close(c.dispatchDone)
	for fn := range c.notif {
		fn()
	}
}

// AppID returns the RMS-assigned application ID.
func (c *Client) AppID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appID
}

// Dead returns a channel that is closed when the client is permanently
// down: closed, killed, or past its reconnect window. Drivers that manage
// their own re-dial (instead of Options.Reconnect) watch it.
func (c *Client) Dead() <-chan struct{} { return c.dead }

// Reconnects returns how many times the client re-attached its session.
func (c *Client) Reconnects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// UnsolicitedErrors returns how many unsolicited server errors (error
// frames with no sequence number) the client has received.
func (c *Client) UnsolicitedErrors() int64 { return c.unsolicited.Load() }

func (c *Client) send(m proto.Message) error {
	data, err := m.Marshal()
	if err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.w == nil {
		return errors.New("transport: not connected")
	}
	if _, err := c.w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("transport: write: %w", err)
	}
	return c.w.Flush()
}

// call sends m with a fresh sequence number and idempotency token and
// waits for the matching ack or error frame, surviving reconnects and
// honoring the per-call deadline.
func (c *Client) call(m proto.Message) (*proto.Message, error) {
	c.mu.Lock()
	if err := c.downErrLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	seq := c.nextSeq
	c.nextSeq++
	m.Seq = seq
	m.Idem = c.nextIdem
	c.nextIdem++
	pc := &pendingCall{m: m, ch: make(chan callResult, 1)}
	c.waiters[seq] = pc
	sendNow := c.up
	c.mu.Unlock()

	if sendNow {
		if err := c.send(m); err != nil && !c.o.Reconnect {
			// Without reconnection a failed write is final for this call;
			// the read loop will notice the dead connection independently.
			c.mu.Lock()
			delete(c.waiters, seq)
			c.mu.Unlock()
			return nil, err
		}
	}

	if c.o.CallTimeout > 0 {
		// Whoever takes the waiter out under c.mu sends the call's one result.
		// (The callback reads pc only: capturing m would move it to the heap.)
		t := c.clk.AfterFunc(c.o.CallTimeout.Seconds(), "transport.call", func() {
			c.mu.Lock()
			if c.waiters[pc.m.Seq] == pc {
				delete(c.waiters, pc.m.Seq)
				pc.ch <- callResult{err: fmt.Errorf("%w (%s after %s)", ErrCallTimeout, pc.m.Type, c.o.CallTimeout)}
			}
			c.mu.Unlock()
		})
		defer t.Stop()
	}
	res := <-pc.ch
	if res.err != nil {
		return nil, res.err
	}
	if res.m.Type == proto.MsgError {
		// The reason is the server-side error's full text and already
		// names its origin ("rms: request 7 not found").
		return nil, errors.New(res.m.Reason)
	}
	return res.m, nil
}

// downErrLocked returns the terminal error when the client can no longer
// carry calls.
func (c *Client) downErrLocked() error {
	switch {
	case c.closed:
		return errors.New("transport: client closed")
	case c.killed:
		return errSessionKilled
	default:
		return c.termErr
	}
}

// Request sends the request() operation and returns the RMS-assigned ID.
func (c *Client) Request(spec rms.RequestSpec) (request.ID, error) {
	reply, err := c.call(proto.EncodeRequestSpec(spec, 0))
	if err != nil {
		return 0, err
	}
	return request.ID(reply.ReqID), nil
}

// Done sends the done() operation.
func (c *Client) Done(id request.ID, released []int) error {
	_, err := c.call(proto.Message{Type: proto.MsgDone, ReqID: int64(id), Released: released})
	if err == nil {
		// The request is over; its start can never be replayed again.
		c.mu.Lock()
		delete(c.started, int64(id))
		c.mu.Unlock()
	}
	return err
}

// Close disconnects cleanly and waits for both pumps to drain.
func (c *Client) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stop)
	}
	c.mu.Unlock()
	_ = c.send(proto.Message{Type: proto.MsgBye})
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	<-c.runDone
	<-c.dispatchDone
	return nil
}

// run owns the read side across the client's whole life: it pumps one
// connection until it dies, then either reconnects (resuming the session)
// or goes permanently down, failing every pending call.
func (c *Client) run(conn net.Conn, fr *frameReader) {
	defer close(c.runDone)
	for {
		err := c.readLoop(fr)
		conn.Close()
		c.detach()

		c.mu.Lock()
		if c.closed || c.killed || !c.o.Reconnect {
			switch {
			case c.killed:
				err = errSessionKilled
			case c.closed:
				err = errors.New("transport: client closed")
			case err == nil:
				err = errors.New("transport: connection closed")
			}
			c.failAllLocked(err)
			c.mu.Unlock()
			c.finish()
			return
		}
		c.mu.Unlock()

		nconn, nfr, rerr := c.reconnect(err)
		if rerr != nil {
			var rr *ResumeRejectedError
			rejected := errors.As(rerr, &rr)
			c.mu.Lock()
			if rejected {
				c.killed = true
			}
			c.failAllLocked(rerr)
			c.mu.Unlock()
			if rejected {
				reason := rr.Reason
				c.notif <- func() { c.h.OnKill(reason) }
			}
			c.finish()
			return
		}
		conn, fr = nconn, nfr
	}
}

// finish marks the client permanently down and drains the dispatcher.
func (c *Client) finish() {
	close(c.dead)
	close(c.notif)
}

// failAllLocked delivers err to every pending call and rejects future
// calls with it. Idempotent: the waiter map is emptied and the first
// terminal error wins.
func (c *Client) failAllLocked(err error) {
	if c.termErr == nil {
		c.termErr = err
	}
	for seq, pc := range c.waiters {
		pc.ch <- callResult{err: err}
		delete(c.waiters, seq)
	}
}

// reconnect re-dials with exponential backoff + jitter until the session
// is resumed, the window expires, or the server rejects the resume.
func (c *Client) reconnect(cause error) (net.Conn, *frameReader, error) {
	start := c.clk.Now()
	window := positiveOr(c.o.ReconnectWindow, DefaultReconnectWindow)
	c.o.Obs.Event(obs.Event{Type: obs.EvConnDrop, App: c.appID})
	for attempt := 0; ; attempt++ {
		// Backoff with jitter in [0.5, 1.0)·min(base·2ⁿ, max).
		d := positiveOr(c.o.BackoffBase, DefaultBackoffBase) << uint(attempt)
		if dmax := positiveOr(c.o.BackoffMax, DefaultBackoffMax); d <= 0 || d > dmax {
			d = dmax
		}
		c.mu.Lock()
		d = time.Duration(float64(d) * (0.5 + 0.5*c.rng.Float64()))
		c.mu.Unlock()
		woke := make(chan struct{})
		t := c.clk.AfterFunc(d.Seconds(), "transport.backoff", func() { close(woke) })
		select {
		case <-c.stop:
			t.Stop()
			return nil, nil, errors.New("transport: client closed")
		case <-woke:
		}
		remaining := window - time.Duration((c.clk.Now()-start)*float64(time.Second))
		if remaining <= 0 {
			return nil, nil, fmt.Errorf("transport: reconnect window (%s) expired: %w", window, cause)
		}

		dialWait := DefaultHandshakeWait
		if remaining < dialWait {
			dialWait = remaining
		}
		conn, err := net.DialTimeout("tcp", c.addr, dialWait)
		if err != nil {
			continue
		}
		fr := newFrameReader(conn, c.o.MaxFrame)
		c.mu.Lock()
		token := c.token
		c.mu.Unlock()
		reply, err := c.handshake(conn, fr, proto.Message{Type: proto.MsgConnect, Resume: token, Tenant: c.o.Tenant})
		if err != nil {
			conn.Close()
			var rr *ResumeRejectedError
			if errors.As(err, &rr) {
				return nil, nil, err
			}
			continue
		}

		outage := c.clk.Now() - start
		c.attach(conn)
		c.mu.Lock()
		if reply.Resume != "" {
			c.token = reply.Resume
		}
		c.reconnects++
		pend := make([]proto.Message, 0, len(c.waiters))
		for _, pc := range c.waiters {
			pend = append(pend, pc.m)
		}
		c.mu.Unlock()
		// Re-send in-flight calls in seq order; the server deduplicates
		// re-executions via their idempotency tokens. A send failure here
		// means the fresh connection died already — the new read loop
		// notices and the next round retries.
		sort.Slice(pend, func(i, j int) bool { return pend[i].Seq < pend[j].Seq })
		for _, m := range pend {
			if err := c.send(m); err != nil {
				break
			}
		}
		c.hReconnect.Record(outage)
		c.o.Obs.Event(obs.Event{Type: obs.EvResume, App: c.appID, Value: outage})
		return conn, fr, nil
	}
}

// heartbeat probes liveness once an interval until the client is down: a
// ping, or a forced connection teardown (feeding the reconnect path) when
// nothing has been received for heartbeatMisses intervals. One last tick
// may fire after Close: it finds the client down and does not re-arm.
func (c *Client) heartbeat() {
	c.mu.Lock()
	conn, up, down := c.conn, c.up, c.downErrLocked() != nil
	c.mu.Unlock()
	if down {
		return
	}
	if up && conn != nil {
		silent := c.clk.Now() - math.Float64frombits(c.lastRx.Load())
		if silent > (heartbeatMisses * c.o.HeartbeatInterval).Seconds() {
			// Silent for too long: declare the connection dead. Closing it
			// unblocks the read loop, which reconnects (or fails).
			conn.Close()
		} else {
			_ = c.send(proto.Message{Type: proto.MsgPing})
		}
	}
	c.clk.AfterFunc(c.o.HeartbeatInterval.Seconds(), "transport.heartbeat", c.heartbeat)
}

// readLoop pumps one connection until it dies or the session ends.
func (c *Client) readLoop(fr *frameReader) error {
	// The views this connection's frames have built so far; a delta frame
	// patches them. They start over with every connection.
	var np, p view.View
	synced := false
	for {
		line, err := fr.next()
		if err != nil {
			// An oversized server frame is connection-fatal for the client
			// (a dropped ack would wedge its call); the resume path
			// re-syncs all state on a fresh connection.
			return err
		}
		c.lastRx.Store(math.Float64bits(c.clk.Now()))
		m, err := proto.Unmarshal(line)
		if err != nil {
			return err
		}
		switch m.Type {
		case proto.MsgPong:
			// Liveness already noted via lastRx.
		case proto.MsgPing:
			_ = c.send(proto.Message{Type: proto.MsgPong, Seq: m.Seq})
		case proto.MsgReqAck, proto.MsgError:
			if m.Seq == 0 {
				c.unsolicited.Add(1)
				if eh, ok := c.h.(ErrorHandler); ok {
					reason := m.Reason
					c.notif <- func() { eh.OnError(reason) }
				}
				continue
			}
			c.mu.Lock()
			pc := c.waiters[m.Seq]
			delete(c.waiters, m.Seq)
			c.mu.Unlock()
			if pc != nil {
				pc.ch <- callResult{m: m}
			}
		case proto.MsgViews:
			if m.Delta && !synced {
				// Nothing to patch: fatal for the connection, like any frame
				// the client cannot use; the resume re-syncs.
				return errors.New("transport: delta views frame before a full one")
			}
			if !m.Delta {
				np, p = nil, nil
			}
			var err1, err2 error
			np, err1 = m.NonPreemptView.Apply(np)
			p, err2 = m.PreemptView.Apply(p)
			if err1 != nil || err2 != nil {
				return errors.Join(err1, err2)
			}
			synced = true
			// Apply built fresh maps, so the handler may keep this pair.
			fnp, fp := np, p
			c.notif <- func() { c.h.OnViews(fnp, fp) }
		case proto.MsgStart:
			c.mu.Lock()
			dup := m.Replay && c.started[m.ReqID]
			if !dup {
				c.started[m.ReqID] = true
			}
			c.mu.Unlock()
			if dup {
				continue // start already delivered before the reconnect
			}
			id, ids := request.ID(m.ReqID), m.NodeIDs
			c.notif <- func() { c.h.OnStart(id, ids) }
		case proto.MsgKill:
			c.mu.Lock()
			c.killed = true
			c.failAllLocked(errSessionKilled)
			c.mu.Unlock()
			reason := m.Reason
			c.notif <- func() { c.h.OnKill(reason) }
			return errSessionKilled
		}
	}
}
