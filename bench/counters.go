package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"dledger/internal/telemetry"
)

// txPhases are the dl_tx_phase_seconds labels, in journey order.
var txPhases = []string{"admit_wait", "mempool_wait", "disperse", "ba", "retrieve", "deliver", "proof"}

// snapshot is the cluster's counters at one instant of a traced run.
// Layer metrics are differences of two snapshots around the measured
// window; the histogram medians cover the nodes' whole incarnation.
type snapshot struct {
	at         time.Time
	mem        runtime.MemStats
	gcCPU      float64 // seconds
	cpu        float64 // seconds
	sentBytes  uint64  // all nodes, both classes
	sentFrames uint64
	replayed   uint64
	fsyncs     uint64
	epochs     int64 // node 0
	payload    int64 // node 0, delivered payload bytes
	txs        int64 // node 0, delivered transactions
	accepted   int64 // gateways
	rejected   int64
	fsyncP50us float64            // mean over nodes
	phaseP50ms map[string]float64 // mean over the nodes that saw the phase
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func (c *liveCluster) snapshot() *snapshot {
	if !c.traced {
		return nil
	}
	s := &snapshot{at: time.Now(), cpu: cpuSeconds(), gcCPU: gcCPUSeconds(), phaseP50ms: map[string]float64{}}
	runtime.ReadMemStats(&s.mem)
	phaseNodes := map[string]int{}
	fsyncNodes := 0
	for i, node := range c.nodes {
		st := node.Stats()
		if i == 0 {
			s.epochs, s.payload, s.txs = st.EpochsDelivered, st.DeliveredPayload, st.DeliveredTxs
		}
		s.accepted += st.Gateway.Accepted
		g := st.Gateway
		s.rejected += g.RejectedDuplicate + g.RejectedOverCapacity + g.RejectedOversize + g.RejectedInvalid + g.RejectedRateLimited
		reg := node.Telemetry().Registry()
		for _, class := range []string{`class="dispersal"`, `class="retrieval"`} {
			s.sentBytes += reg.Counter("dl_transport_sent_bytes_total", class, "").Value()
			s.sentFrames += reg.Counter("dl_transport_sent_frames_total", class, "").Value()
		}
		s.replayed += reg.Counter("dl_transport_replayed_frames_total", "", "").Value()
		if h := reg.FindHistogram("dl_wal_fsync_seconds", ""); h.Count() > 0 {
			s.fsyncs += h.Count()
			s.fsyncP50us += float64(h.Quantile(0.5)) / 1e3
			fsyncNodes++
		}
		for _, p := range txPhases {
			if h := reg.FindHistogram("dl_tx_phase_seconds", `phase="`+p+`"`); h.Count() > 0 {
				s.phaseP50ms[p] += float64(h.Quantile(0.5)) / 1e6
				phaseNodes[p]++
			}
		}
	}
	if fsyncNodes > 0 {
		s.fsyncP50us /= float64(fsyncNodes)
	}
	for p, n := range phaseNodes {
		s.phaseP50ms[p] /= float64(n)
	}
	return s
}

// sampler polls, during the measured window of a traced run, the values
// that have no counter: goroutine and heap peaks, the deepest transport
// write queue, and bytes appended under the data directory.
type sampler struct {
	halt chan struct{}
	done sync.WaitGroup

	goroutines  int
	heapBytes   uint64
	writeQueue  int64
	diskWritten int64
}

func startSampler(c *liveCluster) *sampler {
	s := &sampler{halt: make(chan struct{})}
	var queues []*telemetry.Gauge
	for i, node := range c.nodes {
		for j := range c.nodes {
			if i != j {
				queues = append(queues, node.Telemetry().Registry().Gauge("dl_queue_transport_write", fmt.Sprintf(`peer="%d"`, j), ""))
			}
		}
	}
	sizes := map[string]int64{}
	// Segments only grow, rotate or get compacted away, so summing each
	// file's growth between polls counts the bytes written; a segment
	// deleted between two polls loses at most one interval of its tail.
	scan := func(count bool) {
		filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			info, err := d.Info()
			if err != nil {
				return nil
			}
			if grown := info.Size() - sizes[path]; count && grown > 0 {
				s.diskWritten += grown
			}
			sizes[path] = info.Size()
			return nil
		})
	}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	scan(false)
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if g := runtime.NumGoroutine(); g > s.goroutines {
				s.goroutines = g
			}
			metrics.Read(heap)
			if b := heap[0].Value.Uint64(); b > s.heapBytes {
				s.heapBytes = b
			}
			for _, q := range queues {
				if v := q.Value(); v > s.writeQueue {
					s.writeQueue = v
				}
			}
			scan(true)
			select {
			case <-tick.C:
			case <-s.halt:
				return
			}
		}
	}()
	return s
}

// stop ends the polling; the fields are safe to read afterwards.
func (s *sampler) stop() {
	close(s.halt)
	s.done.Wait()
}
