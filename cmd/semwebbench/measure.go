package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// value is one reported metric. Samples is how many observations stand
// behind it (0 for counts and gauges); -compare refuses to resolve a
// percentile its samples cannot support.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one workload run.
type result struct {
	Ops     int              `json:"ops"`
	Failed  int              `json:"failed"`
	Metrics map[string]value `json:"metrics"`
	// firstFailure is the first check that failed, for the operator.
	firstFailure error
}

func (r *result) set(list []metricSpec, name string, v float64, samples int) {
	spec, ok := specOf(list, name)
	if !ok {
		panic("semwebbench: metric " + name + " is not in the spec")
	}
	r.Metrics[name] = value{Value: v, Unit: spec.Unit, Samples: samples}
}

// durations collects latencies.
type durations []time.Duration

// quantile returns the q-quantile by nearest rank, 0 when empty.
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func (d durations) sum() time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cpuTime is the process's user+system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns what survives it.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// window brackets a timed section with the process-level counters the
// end-to-end and runtime.* metrics need.
type window struct {
	start  time.Time
	cpu    time.Duration
	mem    runtime.MemStats
	wall   time.Duration
	cpuUse time.Duration
	allocs uint64
	gcNs   uint64
}

func openWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.mem)
	w.cpu = cpuTime()
	w.start = time.Now()
	return w
}

func (w *window) close() {
	w.wall = time.Since(w.start)
	w.cpuUse = cpuTime() - w.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.allocs = m.Mallocs - w.mem.Mallocs
	w.gcNs = m.PauseTotalNs - w.mem.PauseTotalNs
}
