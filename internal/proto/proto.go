// Package proto defines the wire messages of the CooRMv2
// application–RMS protocol (the interaction of Fig. 8), serialized as
// newline-delimited JSON. It mirrors the in-process interface of
// internal/rms so that the same application code can run against the
// simulator or against the TCP daemon.
package proto

import (
	"encoding/json"
	"fmt"
	"math"

	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

// MsgType enumerates the protocol messages.
type MsgType string

const (
	// Application → RMS.
	MsgConnect MsgType = "connect" // open a session
	MsgRequest MsgType = "request" // the request() operation
	MsgDone    MsgType = "done"    // the done() operation
	MsgBye     MsgType = "bye"     // clean disconnect

	// RMS → application.
	MsgConnected MsgType = "connected" // session accepted, carries app ID
	MsgReqAck    MsgType = "req-ack"   // request accepted, carries request ID
	MsgError     MsgType = "error"     // request/done rejected
	MsgViews     MsgType = "views"     // fresh non-preemptive + preemptive views
	MsgStart     MsgType = "start"     // startNotify: request started, node IDs
	MsgKill      MsgType = "kill"      // protocol violation, session terminated

	// Either direction: liveness probes. A ping carries an optional Seq
	// that the pong echoes verbatim; neither touches session state.
	MsgPing MsgType = "ping"
	MsgPong MsgType = "pong"
)

// infDuration encodes math.Inf(1) on the wire (JSON has no Inf literal).
const infDuration = -1

// StepJSON is one (duration, node-count) segment of a profile.
// A Duration of -1 means "forever".
type StepJSON struct {
	Duration float64 `json:"dur"`
	N        int     `json:"n"`
}

// ViewJSON is a wire-encodable view: cluster ID → availability steps.
type ViewJSON map[string][]StepJSON

// EncodeView converts a view to its full wire form: every cluster it names.
func EncodeView(v view.View) ViewJSON {
	out := make(ViewJSON, v.Len())
	for cid := range v.All() {
		out[string(cid)] = encodeProfile(v.Get(cid))
	}
	return out
}

// PatchView applies the segment seg (see rms.AppHandler.OnViews) to acc in
// place — a named profile replaces acc's, a named zero removes the cluster,
// a cluster seg does not name keeps its profile — and returns the clusters
// whose profile changed, in names emptied and refilled. The delta is
// EncodeViewAt(dst, steps, seg, names): applying it to a copy of acc taken
// before the call (ViewJSON.Apply) gives acc after it. acc and names must
// be owned by the caller; seg is not modified.
func PatchView(names []view.ClusterID, acc, seg view.View) []view.ClusterID {
	names = names[:0]
	for cid := range seg.All() {
		if f := seg.Get(cid); !f.Equal(acc.Get(cid)) {
			acc.Set(cid, f)
			names = append(names, cid)
		}
	}
	return names
}

// EncodeViewAt encodes v's profiles at names, a zero profile for a cluster
// v does not hold, into dst emptied and refilled (a fresh map when dst is
// nil and names is not empty). The encoded steps are appended to steps,
// returned grown: a caller that keeps dst and steps reuses one map and one
// array, and must be done with dst before it passes steps[:0] again.
func EncodeViewAt(dst ViewJSON, steps []StepJSON, v view.View, names []view.ClusterID) (ViewJSON, []StepJSON) {
	clear(dst)
	for _, cid := range names {
		if dst == nil {
			dst = make(ViewJSON, len(names))
		}
		from := len(steps)
		steps = appendProfile(steps, v.Get(cid))
		dst[string(cid)] = steps[from:len(steps):len(steps)]
	}
	return dst, steps
}

// encodeProfile is f.Steps() in wire form, in a slice of its own.
func encodeProfile(f *stepfunc.StepFunc) []StepJSON {
	return appendProfile(make([]StepJSON, 0, max(f.Len(), 1)), f)
}

// appendProfile appends f.Steps() in wire form to enc, read off f's
// breakpoints (the first is at 0, so a profile that is zero until some
// t > 0 starts with that zero step).
func appendProfile(enc []StepJSON, f *stepfunc.StepFunc) []StepJSON {
	n := f.Len()
	if n == 0 {
		return append(enc, StepJSON{Duration: infDuration})
	}
	for i := range n {
		t, v := f.At(i)
		d := math.Inf(1)
		if i+1 < n {
			next, _ := f.At(i + 1)
			d = next - t
		}
		if math.IsInf(d, 1) {
			d = infDuration
		}
		enc = append(enc, StepJSON{Duration: d, N: v})
	}
	return enc
}

// DecodeView converts a full wire view back to the internal representation.
func (vj ViewJSON) DecodeView() (view.View, error) { return vj.Apply(nil) }

// Apply returns base patched with vj: a listed cluster replaces base's
// profile, a zero profile removes the cluster, every other cluster of base
// carries over. The result is a fresh map; base is not modified.
func (vj ViewJSON) Apply(base view.View) (view.View, error) {
	out := base.Clone()
	for cid, steps := range vj {
		dec := make([]stepfunc.Step, len(steps))
		t := 0.0
		for i, s := range steps {
			d := s.Duration
			if d == infDuration {
				d = math.Inf(1)
			}
			// A step must move time forward to a finite instant (or be the
			// closing "forever"), else the profile's breakpoints collide.
			end := t + d
			if d < 0 || d > 0 && (end == t || math.IsInf(end, 1) && !math.IsInf(d, 1)) {
				return nil, fmt.Errorf("proto: invalid duration %v in view", s.Duration)
			}
			t = end
			dec[i] = stepfunc.Step{Duration: d, N: s.N}
		}
		out.Set(view.ClusterID(cid), stepfunc.FromSteps(dec...))
	}
	return out, nil
}

// Message is the single frame type exchanged in both directions; Type
// selects which fields are meaningful.
type Message struct {
	Type MsgType `json:"type"`
	// Seq correlates an application message with its ack/error.
	Seq int64 `json:"seq,omitempty"`

	// Idem is a client-assigned idempotency token on MsgRequest/MsgDone.
	// The server caches the outcome of every idem-carrying call, so a
	// client re-sending the same call after a reconnect (its ack may have
	// died with the connection) gets the original outcome replayed instead
	// of executing the operation twice. Tokens increase within a session
	// (transport.Client counts up from 1): the server's cache is bounded,
	// and it tells a retry of an outcome it no longer holds — refused as
	// stale — from a new call by the token being below ones it has evicted.
	// Zero disables deduplication.
	Idem int64 `json:"idem,omitempty"`

	// Resume carries the session-resume token: on MsgConnect a client
	// presents the token of the session it wants to reclaim (empty for a
	// fresh session); on MsgConnected the server issues the token the
	// client must present when reconnecting.
	Resume string `json:"resume,omitempty"`

	// Tenant optionally tags a MsgConnect with a tenant queue path
	// ("org/team/q"); the transport forwards it as rms.WithTenant.
	Tenant string `json:"tenant,omitempty"`

	// Replay marks a MsgViews/MsgStart re-delivered from current state
	// after a session resume. Clients deduplicate replayed starts by
	// request ID; non-replay frames are always fresh.
	Replay bool `json:"replay,omitempty"`

	// MsgConnected
	AppID int `json:"app_id,omitempty"`

	// MsgRequest
	Cluster    string  `json:"cluster,omitempty"`
	N          int     `json:"n,omitempty"`
	Duration   float64 `json:"duration,omitempty"` // -1 = infinite
	ReqType    string  `json:"req_type,omitempty"` // "PA" | "NP" | "P"
	RelatedHow string  `json:"related_how,omitempty"`
	RelatedTo  int64   `json:"related_to,omitempty"`

	// MsgReqAck, MsgDone, MsgStart
	ReqID int64 `json:"req_id,omitempty"`

	// MsgDone
	Released []int `json:"released,omitempty"`

	// MsgStart
	NodeIDs []int `json:"node_ids,omitempty"`

	// MsgViews. With Delta the two views list only what changed since the
	// previous views frame on the same connection (see PatchView and
	// ViewJSON.Apply): an absent view is unchanged, not empty. The first
	// views frame of every connection is full.
	NonPreemptView ViewJSON `json:"np_view,omitempty"`
	PreemptView    ViewJSON `json:"p_view,omitempty"`
	Delta          bool     `json:"delta,omitempty"`

	// MsgError, MsgKill
	Reason string `json:"reason,omitempty"`
}

// reqTypeNames maps wire names to request types.
var reqTypeNames = map[string]request.Type{
	"PA": request.PreAlloc,
	"NP": request.NonPreempt,
	"P":  request.Preempt,
}

// relationNames maps wire names to constraint relations.
var relationNames = map[string]request.Relation{
	"":        request.Free,
	"FREE":    request.Free,
	"COALLOC": request.Coalloc,
	"NEXT":    request.Next,
}

// EncodeReqType returns the wire name of a request type.
func EncodeReqType(t request.Type) string {
	switch t {
	case request.PreAlloc:
		return "PA"
	case request.NonPreempt:
		return "NP"
	default:
		return "P"
	}
}

// EncodeRelation returns the wire name of a relation.
func EncodeRelation(r request.Relation) string {
	switch r {
	case request.Coalloc:
		return "COALLOC"
	case request.Next:
		return "NEXT"
	default:
		return "FREE"
	}
}

// EncodeRequestSpec converts an rms.RequestSpec into a MsgRequest frame.
func EncodeRequestSpec(spec rms.RequestSpec, seq int64) Message {
	d := spec.Duration
	if math.IsInf(d, 1) {
		d = infDuration
	}
	return Message{
		Type:       MsgRequest,
		Seq:        seq,
		Cluster:    string(spec.Cluster),
		N:          spec.N,
		Duration:   d,
		ReqType:    EncodeReqType(spec.Type),
		RelatedHow: EncodeRelation(spec.RelatedHow),
		RelatedTo:  int64(spec.RelatedTo),
	}
}

// DecodeRequestSpec converts a MsgRequest frame back into a spec.
func (m *Message) DecodeRequestSpec() (rms.RequestSpec, error) {
	if m.Type != MsgRequest {
		return rms.RequestSpec{}, fmt.Errorf("proto: %q is not a request message", m.Type)
	}
	typ, ok := reqTypeNames[m.ReqType]
	if !ok {
		return rms.RequestSpec{}, fmt.Errorf("proto: unknown request type %q", m.ReqType)
	}
	how, ok := relationNames[m.RelatedHow]
	if !ok {
		return rms.RequestSpec{}, fmt.Errorf("proto: unknown relation %q", m.RelatedHow)
	}
	d := m.Duration
	if d == infDuration {
		d = math.Inf(1)
	}
	return rms.RequestSpec{
		Cluster:    view.ClusterID(m.Cluster),
		N:          m.N,
		Duration:   d,
		Type:       typ,
		RelatedHow: how,
		RelatedTo:  request.ID(m.RelatedTo),
	}, nil
}

// Marshal serializes a message as one JSON line (without the newline).
func (m *Message) Marshal() ([]byte, error) {
	return json.Marshal(m)
}

// Unmarshal parses one JSON line into a message.
func Unmarshal(data []byte) (*Message, error) {
	var m Message
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("proto: %w", err)
	}
	if m.Type == "" {
		return nil, fmt.Errorf("proto: missing message type")
	}
	return &m, nil
}
