package proto

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/stepfunc"
	"coormv2/internal/view"
)

func TestViewRoundTrip(t *testing.T) {
	v := view.New().
		AddRect("a", 0, 3600, 4).
		AddRect("a", 3600, 3600, 3).
		AddRect("b", 0, math.Inf(1), 6)
	enc := EncodeView(v)
	dec, err := enc.DecodeView()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(v) {
		t.Errorf("round trip lost data: %v vs %v", dec, v)
	}
}

func TestViewRoundTripEmpty(t *testing.T) {
	dec, err := EncodeView(view.New()).DecodeView()
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Errorf("empty view round trip = %v", dec)
	}
}

func TestViewDecodeRejectsBadDuration(t *testing.T) {
	vj := ViewJSON{"a": []StepJSON{{Duration: -7, N: 3}}}
	if _, err := vj.DecodeView(); err == nil {
		t.Error("negative (non-sentinel) duration should be rejected")
	}
}

// TestPatchViewSegments pins how a segment patches an accumulated view: a
// named zero survives in the segment and removes the cluster from the
// accumulator, a named profile replaces, an unnamed cluster keeps its
// profile.
func TestPatchViewSegments(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seg     view.View
		changed []view.ClusterID
		want    view.View
	}{
		{"named zero removes a held cluster", view.Constant(0, "a"), []view.ClusterID{"a"}, view.Constant(5, "c")},
		{"named zero of a missing cluster", view.Constant(0, "b"), nil, view.Constant(5, "a", "c")},
		{"named profile replaces", view.Constant(3, "a"), []view.ClusterID{"a"}, view.Constant(3, "a").Add(view.Constant(5, "c"))},
		{"equal profile is no change", view.Constant(5, "a"), nil, view.Constant(5, "a", "c")},
		{"empty segment", view.New(), nil, view.Constant(5, "a", "c")},
	} {
		acc := view.Constant(5, "a", "c")
		segLen := tc.seg.Len()
		names := PatchView(nil, acc, tc.seg)
		slices.Sort(names)
		// want is canonical, so an equal length means acc names no zero.
		if !slices.Equal(names, tc.changed) || !acc.Equal(tc.want) || acc.Len() != tc.want.Len() {
			t.Errorf("%s: changed %v, acc %v; want %v, %v", tc.name, names, acc, tc.changed, tc.want)
		}
		if tc.seg.Len() != segLen {
			t.Errorf("%s: PatchView dropped a name from its segment: %v", tc.name, tc.seg)
		}
	}
}

func TestRequestSpecRoundTrip(t *testing.T) {
	specs := []rms.RequestSpec{
		{Cluster: "c0", N: 4, Duration: 100, Type: request.NonPreempt},
		{Cluster: "c0", N: 8, Duration: 1e6, Type: request.PreAlloc},
		{Cluster: "c1", N: 2, Duration: math.Inf(1), Type: request.Preempt,
			RelatedHow: request.Coalloc, RelatedTo: 42},
		{Cluster: "c0", N: 6, Duration: 60, Type: request.NonPreempt,
			RelatedHow: request.Next, RelatedTo: 7},
	}
	for _, spec := range specs {
		m := EncodeRequestSpec(spec, 9)
		data, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.DecodeRequestSpec()
		if err != nil {
			t.Fatal(err)
		}
		if got != spec {
			t.Errorf("round trip: got %+v, want %+v", got, spec)
		}
		if back.Seq != 9 {
			t.Errorf("Seq lost: %d", back.Seq)
		}
	}
}

func TestDecodeRequestSpecErrors(t *testing.T) {
	m := &Message{Type: MsgViews}
	if _, err := m.DecodeRequestSpec(); err == nil {
		t.Error("non-request message should error")
	}
	m = &Message{Type: MsgRequest, ReqType: "XX"}
	if _, err := m.DecodeRequestSpec(); err == nil {
		t.Error("unknown req type should error")
	}
	m = &Message{Type: MsgRequest, ReqType: "NP", RelatedHow: "SOMEDAY"}
	if _, err := m.DecodeRequestSpec(); err == nil {
		t.Error("unknown relation should error")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("{not json")); err == nil {
		t.Error("bad JSON should error")
	}
	if _, err := Unmarshal([]byte(`{"seq":1}`)); err == nil {
		t.Error("missing type should error")
	}
}

func TestEncodeNames(t *testing.T) {
	if EncodeReqType(request.PreAlloc) != "PA" ||
		EncodeReqType(request.NonPreempt) != "NP" ||
		EncodeReqType(request.Preempt) != "P" {
		t.Error("req type names")
	}
	if EncodeRelation(request.Free) != "FREE" ||
		EncodeRelation(request.Coalloc) != "COALLOC" ||
		EncodeRelation(request.Next) != "NEXT" {
		t.Error("relation names")
	}
}

func TestMessageJSONStable(t *testing.T) {
	m := Message{Type: MsgStart, ReqID: 3, NodeIDs: []int{1, 2}}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Type != MsgStart || back.ReqID != 3 || len(back.NodeIDs) != 2 {
		t.Errorf("round trip = %+v", back)
	}
}

func TestResilienceFieldsRoundTrip(t *testing.T) {
	m := Message{
		Type:   MsgConnect,
		Idem:   42,
		Resume: "deadbeef",
		Tenant: "org/team/q",
		Replay: true,
	}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Idem != 42 || got.Resume != "deadbeef" || got.Tenant != "org/team/q" || !got.Replay {
		t.Fatalf("round trip lost resilience fields: %+v", got)
	}
}

func TestPingPongRoundTrip(t *testing.T) {
	for _, typ := range []MsgType{MsgPing, MsgPong} {
		m := Message{Type: typ, Seq: 7}
		data, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != typ || got.Seq != 7 {
			t.Fatalf("%s round trip: %+v", typ, got)
		}
	}
}

func TestZeroResilienceFieldsOmitted(t *testing.T) {
	// Frames from pre-resilience peers must stay byte-compatible: the new
	// fields are omitempty and absent fields decode to their zero values.
	m := Message{Type: MsgRequest, Seq: 1}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"idem", "resume", "tenant", "replay"} {
		if strings.Contains(string(data), banned) {
			t.Fatalf("zero-valued %q serialized: %s", banned, data)
		}
	}
}

// TestEncodeProfileMatchesSteps checks encodeProfile, which reads a
// profile's breakpoints, against the encoding of its Steps() list, on the
// zero profile, a profile that is zero until its first breakpoint, a single
// infinite step and random profiles.
func TestEncodeProfileMatchesSteps(t *testing.T) {
	viaSteps := func(f *stepfunc.StepFunc) []StepJSON {
		var enc []StepJSON
		for _, s := range f.Steps() {
			d := s.Duration
			if math.IsInf(d, 1) {
				d = infDuration
			}
			enc = append(enc, StepJSON{Duration: d, N: s.N})
		}
		return enc
	}
	fs := []*stepfunc.StepFunc{
		stepfunc.Zero(),
		stepfunc.Rect(30, 60, 4),
		stepfunc.Rect(30, math.Inf(1), 4),
		stepfunc.Constant(7),
		stepfunc.Constant(-2),
		stepfunc.Zero().AddRect(1e308, 1e308, 3), // a breakpoint at +Inf
	}
	rng := rand.New(rand.NewSource(1))
	for range 500 {
		steps := make([]stepfunc.Step, 1+rng.Intn(6))
		for i := range steps {
			steps[i] = stepfunc.Step{Duration: float64(rng.Intn(4)) + rng.Float64(), N: rng.Intn(9) - 2}
		}
		if rng.Intn(2) == 0 {
			steps[len(steps)-1].Duration = math.Inf(1)
		}
		fs = append(fs, stepfunc.FromSteps(steps...))
	}
	for _, f := range fs {
		if got, want := encodeProfile(f), viaSteps(f); !slices.Equal(got, want) {
			t.Fatalf("%v encodes as %v, its steps as %v", f, got, want)
		}
	}
}
