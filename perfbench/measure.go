package main

import (
	"context"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtime/metrics names read around every operation.
const (
	mAllocs     = "/gc/heap/allocs:objects"
	mTinyAllocs = "/gc/heap/tiny/allocs:objects"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mIdleCPU    = "/cpu/classes/idle:cpu-seconds"
	mHeapBytes  = "/memory/classes/heap/objects:bytes"
)

// memSnap is a point-in-time read of the Go runtime's cumulative
// counters; subtracting two gives one operation's share.
type memSnap struct {
	allocs   uint64 // heap allocations, tiny ones included (as testing's allocs/op)
	gcCycles uint64
	gcCPU    float64 // seconds
	busyCPU  float64 // seconds of CPU time used: the runtime's total (GOMAXPROCS x wall time) less idle
}

func readMem() memSnap {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mTinyAllocs}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mIdleCPU}}
	metrics.Read(s)
	return memSnap{
		allocs:   s[0].Value.Uint64() + s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
		busyCPU:  s[4].Value.Float64() - s[5].Value.Float64(),
	}
}

func (a memSnap) sub(b memSnap) memSnap {
	return memSnap{a.allocs - b.allocs, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.busyCPU - b.busyCPU}
}

func (a memSnap) add(b memSnap) memSnap {
	return memSnap{a.allocs + b.allocs, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.busyCPU + b.busyCPU}
}

// heapSampler polls the in-use heap periodically and keeps the
// highest value seen since the last take. The runtime exposes no peak,
// so a sampled maximum is the closest outside measure.
type heapSampler struct {
	peak   atomic.Uint64
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Sampling periods. A simulation run lasts seconds and its heap moves
// slowly, and waking more often would slow the single-threaded run on
// the other CPU. A job round's heap spikes for a few milliseconds at a
// time (a trace being serialized), and both CPUs are busy anyway.
const (
	simHeapPoll = 10 * time.Millisecond
	jobHeapPoll = time.Millisecond
)

func startHeapSampler(every time.Duration) *heapSampler {
	ctx, cancel := context.WithCancel(context.Background())
	h := &heapSampler{cancel: cancel}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: mHeapBytes}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the peak in MB since the previous take and restarts
// the window at the current heap size.
func (h *heapSampler) take() float64 {
	h.sample()
	p := h.peak.Swap(0)
	h.sample()
	return float64(p) / (1 << 20)
}

func (h *heapSampler) stop() {
	h.cancel()
	h.wg.Wait()
}
