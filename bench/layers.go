package main

import (
	"runtime"
	"time"

	"coormv2/internal/federation"
	"coormv2/internal/proto"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/view"
)

// layerReplays times public functions of the lower layers on inputs
// captured from the traced run: the layers no wrapper can see into from
// outside (the scheduler core, the CAP algebra, the codec). They run after
// the timed phase, with the tracer off. The results are keyed by per-layer
// metric name.
type layerReplays map[string]float64

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func usPer(d time.Duration, n int) float64 {
	return float64(d) / 1e3 / float64(n)
}

// core times Scheduler.Schedule on every shard's live scheduler, which must
// be quiescent: untouched (everything cached) and after one application was
// marked dirty. Re-scheduling at an unchanged instant recomputes the same
// schedule, so the program's state is not perturbed — the traced run's
// event hash is compared with the untraced one to prove it.
func (l layerReplays) core(fed *federation.Federator) {
	const reps = 16
	now := fed.Now()
	var clean, dirty time.Duration
	var allocs uint64
	n := 0
	for i := 0; i < fed.NumShards(); i++ {
		sched := fed.Shard(i).Scheduler()
		apps := sched.Apps()
		if len(apps) == 0 {
			continue
		}
		target := apps[len(apps)/2].ID
		sched.Schedule(now) // absorb whatever the last round left dirty
		t := time.Now()
		for r := 0; r < reps; r++ {
			sched.Schedule(now)
		}
		clean += time.Since(t)
		m0 := mallocs()
		t = time.Now()
		for r := 0; r < reps; r++ {
			sched.MarkAppDirty(target)
			sched.Schedule(now)
		}
		dirty += time.Since(t)
		allocs += mallocs() - m0
		n += reps
	}
	if n > 0 {
		l["core.schedule_clean_us"] = usPer(clean, n)
		l["core.schedule_dirty1_us"] = usPer(dirty, n)
		l["core.allocs_per_round"] = float64(allocs) / float64(n)
	}
}

// codecAndViews times the proto codec and the view algebra on the captured
// view pairs (oldest first). now is the instant the next round would trim
// the views at.
func (l layerReplays) codecAndViews(pairs [][2]view.View, now float64) {
	if len(pairs) == 0 {
		return
	}
	passes := 1 + 1024/len(pairs)
	calls := passes * len(pairs)

	frames := make([][]byte, len(pairs))
	var bytes int
	m0 := mallocs()
	t := time.Now()
	for pass := 0; pass < passes; pass++ {
		for i, vp := range pairs {
			m := proto.Message{Type: proto.MsgViews,
				NonPreemptView: proto.EncodeView(vp[0]), PreemptView: proto.EncodeView(vp[1])}
			data, err := m.Marshal()
			if err != nil {
				panic(err) // a view the program delivered must encode
			}
			frames[i] = data
		}
	}
	l["proto.marshal_views_us"] = usPer(time.Since(t), calls)
	l["proto.allocs_per_views_frame"] = float64(mallocs()-m0) / float64(calls)
	for _, f := range frames {
		bytes += len(f)
	}
	l["proto.views_frame_kb"] = float64(bytes) / float64(len(frames)) / 1024

	t = time.Now()
	for pass := 0; pass < passes; pass++ {
		for _, f := range frames {
			m, err := proto.Unmarshal(f)
			if err == nil {
				_, err = m.NonPreemptView.DecodeView()
			}
			if err == nil {
				_, err = m.PreemptView.DecodeView()
			}
			if err != nil {
				panic(err) // a frame just encoded must decode
			}
		}
	}
	l["proto.unmarshal_views_us"] = usPer(time.Since(t), calls)

	spec := rms.RequestSpec{Cluster: "c0", N: 1, Duration: 3600, Type: request.NonPreempt}
	const codecReps = 2000
	t = time.Now()
	for i := 0; i < codecReps; i++ {
		m := proto.EncodeRequestSpec(spec, int64(i+1))
		data, err := m.Marshal()
		if err == nil {
			var back *proto.Message
			if back, err = proto.Unmarshal(data); err == nil {
				_, err = back.DecodeRequestSpec()
			}
		}
		if err != nil {
			panic(err)
		}
	}
	l["proto.call_codec_us"] = usPer(time.Since(t), codecReps)

	t = time.Now()
	for pass := 0; pass < passes; pass++ {
		for _, vp := range pairs {
			vp[0].TrimBefore(now)
			vp[1].TrimBefore(now)
		}
	}
	l["view.trim_us"] = usPer(time.Since(t), 2*calls)

	t = time.Now()
	for pass := 0; pass < passes; pass++ {
		prev := pairs[len(pairs)-1]
		for _, vp := range pairs {
			vp[0].Equal(prev[0])
			vp[1].Equal(prev[1])
			prev = vp
		}
	}
	l["view.equal_us"] = usPer(time.Since(t), 2*calls)

	t = time.Now()
	for pass := 0; pass < passes; pass++ {
		for _, vp := range pairs {
			view.Sum(vp[0], vp[1])
		}
	}
	l["view.sum_us"] = usPer(time.Since(t), calls)

	var steps, profiles int
	for _, vp := range pairs {
		for _, v := range vp {
			for _, f := range v {
				steps += f.Len()
				profiles++
			}
		}
	}
	if profiles > 0 {
		l["stepfunc.steps_per_profile"] = float64(steps) / float64(profiles)
	}
}
