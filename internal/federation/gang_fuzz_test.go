package federation

import (
	"math"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/metrics"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// FuzzGangReservations drives the reservation state machine through random
// interleavings of hold placement (cross-shard related requests), commits
// (time advancing past alignment), aborts (squatted clusters), done(),
// shard crashes and restarts, and cluster migrations — under both recovery
// policies — and asserts the federation invariants after every step: no
// leaked holds, no half-committed gangs, no dangling ID mappings. Request
// and migration errors are legal outcomes (killed sessions, down shards,
// last clusters); invariant violations and panics are the only failures.
func FuzzGangReservations(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x23, 0x31, 0x41, 0x65})
	f.Add([]byte{0x01, 0x12, 0x24, 0x30, 0x40, 0x52, 0x61})
	f.Add([]byte{0x02, 0x13, 0x13, 0x25, 0x33, 0x43, 0x50, 0x67, 0x21})
	f.Add([]byte{0x03, 0x11, 0x26, 0x32, 0x62, 0x42, 0x14, 0x29})

	clusterIDs := []view.ClusterID{cA, cB, cC}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		if len(data) == 0 {
			return
		}
		pol := KillOnCrash
		if data[0]&1 == 1 {
			pol = RequeueOnCrash
		}
		data = data[1:]

		e := sim.NewEngine()
		fed := New(Config{
			Clusters:        map[view.ClusterID]int{cA: 6, cB: 6, cC: 6},
			Shards:          2,
			ReschedInterval: 1,
			Clock:           clock.SimClock{E: e},
			Recovery:        pol,
			Metrics:         func(int) *metrics.Recorder { return metrics.NewRecorder() },
		})
		sessions := []*Session{fed.Connect(&testApp{}), fed.Connect(&testApp{})}
		var ids []request.ID // successfully submitted requests, any session

		check := func(op int) {
			if err := fed.CheckInvariants(); err != nil {
				t.Fatalf("after op %d: %v", op, err)
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]>>4, data[i+1]
			sess := sessions[int(data[i]&0x0f)%len(sessions)]
			switch op % 8 {
			case 0: // plain request
				dur := float64(1 + arg%40)
				if arg%16 == 0 {
					dur = math.Inf(1)
				}
				if id, err := sess.Request(rms.RequestSpec{
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
				if id, err := sess.Request(rms.RequestSpec{
					Cluster: clusterIDs[int(arg>>1)%len(clusterIDs)],
					N:       1 + int(arg%3), Duration: float64(1 + arg%20), Type: request.NonPreempt,
					RelatedHow: how, RelatedTo: ids[int(arg)%len(ids)],
				}); err == nil {
					ids = append(ids, id)
				}
			case 2: // done on a random known request
				if len(ids) > 0 {
					_ = sess.Done(ids[int(arg)%len(ids)], nil)
				}
			case 3: // crash a shard
				fed.CrashShard(int(arg) % fed.NumShards())
			case 4: // restart a shard
				fed.RestartShard(int(arg) % fed.NumShards())
			case 5: // migrate a cluster (errors — down/last/same-shard — are fine)
				_, _ = fed.MigrateCluster(clusterIDs[int(arg)%len(clusterIDs)], int(arg>>4)%fed.NumShards())
			case 6: // let timers, alignment, and backoff fire
				e.Run(e.Now() + float64(arg%16))
			case 7: // reconnect a fresh session in a killed slot
				slot := int(arg) % len(sessions)
				sessions[slot] = fed.Connect(&testApp{})
			}
			check(i)
			e.Run(e.Now() + 1)
			check(i)
		}
		// Drain far enough for every pending gang to commit or abort, then
		// re-check: nothing may leak once the machinery settles.
		e.Run(e.Now() + 500)
		check(len(data))
	})
}
