package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"coormv2/internal/core"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

// spanName identifies what a span covers. Spans are recorded only from the
// harness's own wrappers around public seams of the program under test;
// nothing inside the program is instrumented.
type spanName uint8

const (
	spOp            spanName = iota // one operation, the root of its spans
	spClientReq                     // driver: transport.Client.Request call → return
	spClientDone                    // driver: transport.Client.Done call → return
	spStartDeliver                  // end of the server's start push → driver OnStart
	spAckToStart                    // Session.Request return → handler OnStart begin
	spFedConnect                    // Backend.Connect
	spFedRequest                    // Session.Request
	spFedDone                       // Session.Done
	spOnViews                       // handler OnViews (on the wire: marshal + enqueue)
	spOnStart                       // handler OnStart
	spPolicyOrder                   // SchedulingPolicy.Order
	spPolicyAdmit                   // SchedulingPolicy.Admit
	spPolicyVictims                 // VictimNominator.Victims
	spRound                         // sim engine event "rms.schedule": one rms round
	spEvent                         // any other sim engine event
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"op", "transport.client_request", "transport.client_done", "transport.start_deliver",
	"rms.ack_to_start", "federation.connect", "federation.request", "federation.done",
	"handler.on_views", "handler.on_start", "policy.order", "policy.admit", "policy.victims",
	"rms.round", "sim.event",
}

// span is one recorded interval. Times are nanoseconds since the tracer
// was created; Parent indexes the span that caused it (−1 for none); spans
// of one operation share Op. The struct is pointer-free so the span buffer
// costs the collector nothing.
type span struct {
	name       spanName
	start, end int64
	parent     int32
	op         int32
	child      int64 // nanoseconds covered by child spans (nested mode)
}

// maxStoredSpans caps the spans kept for the span file; the per-name
// aggregates always cover every span.
const maxStoredSpans = 400_000

// viewRing is how many of the last delivered view pairs are kept for the
// layer replays.
const viewRing = 256

type spanAgg struct {
	count   int64
	totalNs int64
	selfNs  int64
}

// openSpan is a begun, unfinished span of the nested mode and the slot
// reserved for it in the span buffer (−1 when the buffer is full).
type openSpan struct {
	span
	idx int32
}

// tracer collects spans while on. In nested mode (the single-goroutine sim
// workloads) parents come from a stack of open spans, so child time and
// self time are exact; otherwise (wire: server goroutines) every span is a
// child of the latest operation's root.
type tracer struct {
	on     atomic.Bool
	nested bool
	t0     time.Time

	mu      sync.Mutex
	spans   []span
	open    []openSpan // nested mode
	dropped int64
	agg     [nSpanNames]spanAgg
	opID    int32
	opRoot  int32 // wire mode: slot of the latest operation's root span
	opStart int64

	views  [viewRing][2]view.View
	nViews int

	// The current operation's hand-offs between wrappers.
	opReqID        atomic.Int64 // federated ID Session.Request returned
	opReqReturn    atomic.Int64 // when it returned
	opPushStartEnd atomic.Int64 // when the handler's OnStart for it returned
}

func newTracer(nested bool) *tracer {
	return &tracer{nested: nested, t0: time.Now(), opRoot: -1,
		spans: make([]span, 0, maxStoredSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) reserveLocked() int32 {
	if len(t.spans) < maxStoredSpans {
		t.spans = append(t.spans, span{})
		return int32(len(t.spans) - 1)
	}
	t.dropped++
	return -1
}

func (t *tracer) finishLocked(s span, idx int32) {
	a := &t.agg[s.name]
	dur := s.end - s.start
	a.count++
	a.totalNs += dur
	a.selfNs += dur - s.child
	if idx >= 0 {
		t.spans[idx] = s
	}
}

// begin opens a span and returns a token for end (−1 when tracing is off).
func (t *tracer) begin(name spanName) int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	start := t.now()
	if t.nested {
		t.mu.Lock()
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].idx
		}
		t.open = append(t.open, openSpan{
			span{name: name, start: start, parent: parent, op: t.opID}, t.reserveLocked()})
		t.mu.Unlock()
	}
	return start
}

// end closes the span begin opened; in nested mode that must be the
// innermost open one.
func (t *tracer) end(name spanName, token int64) {
	if token < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	if t.nested {
		top := len(t.open) - 1
		o := t.open[top]
		t.open = t.open[:top]
		o.end = end
		if top > 0 {
			t.open[top-1].child += end - o.start
		}
		t.finishLocked(o.span, o.idx)
	} else {
		t.finishLocked(span{name: name, start: token, end: end, parent: t.opRoot, op: t.opID}, t.reserveLocked())
	}
	t.mu.Unlock()
}

// record adds a span whose ends were observed by two different wrappers.
// It is a child of the operation's root and takes no part in nesting.
func (t *tracer) record(name spanName, start, end int64) {
	t.mu.Lock()
	parent := t.opRoot
	if t.nested && len(t.open) > 0 {
		parent = t.open[0].idx
	}
	t.finishLocked(span{name: name, start: start, end: end, parent: parent, op: t.opID}, t.reserveLocked())
	t.mu.Unlock()
}

// beginOp opens operation id's root span.
func (t *tracer) beginOp(id int) int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	t.opReqID.Store(0)
	t.opPushStartEnd.Store(0)
	t.mu.Lock()
	t.opID = int32(id)
	if !t.nested {
		t.opRoot = t.reserveLocked()
		t.opStart = t.now()
	}
	t.mu.Unlock()
	if t.nested {
		return t.begin(spOp)
	}
	return t.opStart
}

// endOp closes the root span beginOp opened. In wire mode later server
// spans (the round the operation's done() triggers) stay its children.
func (t *tracer) endOp(token int64) {
	if token < 0 {
		return
	}
	if t.nested {
		t.end(spOp, token)
		return
	}
	t.mu.Lock()
	t.finishLocked(span{name: spOp, start: t.opStart, end: t.now(), parent: -1, op: t.opID}, t.opRoot)
	t.mu.Unlock()
}

// engineEvent is the sim.Engine observer hook: it closes the previous
// event's span and opens one for the event about to run.
func (t *tracer) engineEvent(name string) {
	if t == nil || !t.on.Load() {
		return
	}
	t.closeEvent()
	sp := spEvent
	if name == "rms.schedule" {
		sp = spRound
	}
	t.begin(sp)
}

// closeEvent closes the open engine-event span, if any. Call it after
// Engine.Run returns.
func (t *tracer) closeEvent() {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	top := len(t.open) - 1
	isEvent := top >= 0 && (t.open[top].name == spRound || t.open[top].name == spEvent)
	var o openSpan
	if isEvent {
		o = t.open[top]
	}
	t.mu.Unlock()
	if isEvent {
		t.end(o.name, o.start)
	}
}

func (t *tracer) keepViews(np, p view.View) {
	t.mu.Lock()
	t.views[t.nViews%viewRing] = [2]view.View{np, p}
	t.nViews++
	t.mu.Unlock()
}

// capturedViews returns the retained view pairs, oldest first.
func (t *tracer) capturedViews() [][2]view.View {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.nViews
	if n > viewRing {
		n = viewRing
	}
	out := make([][2]view.View, 0, n)
	for i := t.nViews - n; i < t.nViews; i++ {
		out = append(out, t.views[i%viewRing])
	}
	return out
}

// meanUs returns the mean duration of the named spans in microseconds (0
// when none were recorded).
func (t *tracer) meanUs(name spanName) float64 {
	a := t.agg[name]
	if a.count == 0 {
		return 0
	}
	return float64(a.totalNs) / float64(a.count) / 1e3
}

func (t *tracer) selfMeanUs(name spanName) float64 {
	a := t.agg[name]
	if a.count == 0 {
		return 0
	}
	return float64(a.selfNs) / float64(a.count) / 1e3
}

// writeSpans writes the kept spans as JSON lines: a header object, then
// one object per span in completion order.
func (t *tracer) writeSpans(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	header["spans"] = len(t.spans)
	header["spans_dropped"] = t.dropped
	header["time_unit"] = "ns since trace start"
	hb, err := json.Marshal(header)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "%s\n", hb)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start":%d,"end":%d,"parent":%d,"op":%d}`+"\n",
			i, spanNames[s.name], s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- wrappers at the public seams ----

// tracedBackend wraps Connect in a span and hands out traced sessions whose
// handler is traced too.
type tracedBackend struct {
	inner transport.Backend
	tr    *tracer
}

func (b tracedBackend) Connect(h rms.AppHandler, opts ...rms.ConnectOption) transport.Session {
	tok := b.tr.begin(spFedConnect)
	s := b.inner.Connect(wrapHandler(h, b.tr), opts...)
	b.tr.end(spFedConnect, tok)
	return &tracedSession{Session: s, tr: b.tr}
}

type tracedSession struct {
	transport.Session
	tr *tracer
}

func (s *tracedSession) Request(spec rms.RequestSpec) (request.ID, error) {
	tok := s.tr.begin(spFedRequest)
	id, err := s.Session.Request(spec)
	s.tr.end(spFedRequest, tok)
	if tok >= 0 && err == nil {
		s.tr.opReqReturn.Store(s.tr.now())
		s.tr.opReqID.Store(int64(id))
	}
	return id, err
}

func (s *tracedSession) Done(id request.ID, released []int) error {
	tok := s.tr.begin(spFedDone)
	err := s.Session.Done(id, released)
	s.tr.end(spFedDone, tok)
	return err
}

// tracedHandler wraps the rms.AppHandler sitting above the federation.
type tracedHandler struct {
	h  rms.AppHandler
	tr *tracer
}

func (w *tracedHandler) OnViews(np, p view.View) {
	tok := w.tr.begin(spOnViews)
	w.h.OnViews(np, p)
	w.tr.end(spOnViews, tok)
	if tok >= 0 {
		w.tr.keepViews(np, p)
	}
}

func (w *tracedHandler) OnStart(id request.ID, nodeIDs []int) {
	tok := w.tr.begin(spOnStart)
	mine := tok >= 0 && w.tr.opReqID.Load() == int64(id)
	if mine {
		w.tr.record(spAckToStart, w.tr.opReqReturn.Load(), tok)
	}
	w.h.OnStart(id, nodeIDs)
	w.tr.end(spOnStart, tok)
	if mine {
		w.tr.opPushStartEnd.Store(w.tr.now())
	}
}

func (w *tracedHandler) OnKill(reason string) { w.h.OnKill(reason) }

// The optional handler extensions are forwarded only when the wrapped
// handler has them: the program type-asserts on them, so a wrapper that
// always implemented them would change its behaviour.
type observerPart struct{ ro rms.RequestObserver }

func (o observerPart) OnRequestFinished(id request.ID)   { o.ro.OnRequestFinished(id) }
func (o observerPart) OnRequestsReaped(ids []request.ID) { o.ro.OnRequestsReaped(ids) }

type nodeFailPart struct {
	nh rms.NodeFailureHandler
}

func (n nodeFailPart) OnNodeFailure(ev rms.NodeFailure) { n.nh.OnNodeFailure(ev) }

// CooperatesOnNodeFailure answers for the handler behind the wrapper, which
// may itself be a routing layer.
func (n nodeFailPart) CooperatesOnNodeFailure() bool {
	return rms.CooperatesOnNodeFailure(n.nh.(rms.AppHandler))
}

func wrapHandler(h rms.AppHandler, tr *tracer) rms.AppHandler {
	base := &tracedHandler{h: h, tr: tr}
	ro, isRO := h.(rms.RequestObserver)
	nh, isNH := h.(rms.NodeFailureHandler)
	switch {
	case isRO && isNH:
		return struct {
			*tracedHandler
			observerPart
			nodeFailPart
		}{base, observerPart{ro}, nodeFailPart{nh}}
	case isRO:
		return struct {
			*tracedHandler
			observerPart
		}{base, observerPart{ro}}
	case isNH:
		return struct {
			*tracedHandler
			nodeFailPart
		}{base, nodeFailPart{nh}}
	}
	return base
}

// tracedPolicy wraps a core.SchedulingPolicy.
type tracedPolicy struct {
	p  core.SchedulingPolicy
	tr *tracer
}

func (w *tracedPolicy) Name() string { return w.p.Name() }
func (w *tracedPolicy) Stable() bool { return w.p.Stable() }

func (w *tracedPolicy) Order(info core.RoundInfo, apps, buf []*core.AppState) []*core.AppState {
	tok := w.tr.begin(spPolicyOrder)
	out := w.p.Order(info, apps, buf)
	w.tr.end(spPolicyOrder, tok)
	return out
}

func (w *tracedPolicy) Admit(info core.RoundInfo, a *core.AppState) bool {
	tok := w.tr.begin(spPolicyAdmit)
	ok := w.p.Admit(info, a)
	w.tr.end(spPolicyAdmit, tok)
	return ok
}

type tracedVictimPolicy struct {
	*tracedPolicy
	v core.VictimNominator
}

func (w tracedVictimPolicy) Victims(info core.RoundInfo, apps []*core.AppState, buf []*request.Request) []*request.Request {
	tok := w.tr.begin(spPolicyVictims)
	out := w.v.Victims(info, apps, buf)
	w.tr.end(spPolicyVictims, tok)
	return out
}

// wrapPolicy traces p; a nil tracer or policy is returned untouched. The
// result nominates victims only when p does.
func wrapPolicy(p core.SchedulingPolicy, tr *tracer) core.SchedulingPolicy {
	if tr == nil || p == nil {
		return p
	}
	base := &tracedPolicy{p: p, tr: tr}
	if v, ok := p.(core.VictimNominator); ok {
		return tracedVictimPolicy{base, v}
	}
	return base
}
