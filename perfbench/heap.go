package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
)

// liveHeapMetric is the live heap the most recent garbage collection
// marked.
const liveHeapMetric = "/gc/heap/live:bytes"

// heapWatch records the largest live heap the garbage collections of a
// window found. It reads the runtime's own figure once per collection,
// from a finalizer that re-arms itself, so the peak does not depend on
// when a sampler happened to look.
type heapWatch struct {
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

// sentinel is the object whose finalizer fires once per collection. It
// carries a pointer so the allocator does not pack it with other tiny
// objects, which could delay its collection.
type sentinel struct {
	_ *int
	_ [8]byte
}

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		s := []metrics.Sample{{Name: liveHeapMetric}}
		metrics.Read(s)
		w.mu.Lock()
		defer w.mu.Unlock()
		if s[0].Value.Kind() == metrics.KindUint64 {
			w.peak = max(w.peak, s[0].Value.Uint64())
		}
		if !w.stopped {
			w.arm()
		}
	})
}

// take returns the window's peak and starts a new window.
func (w *heapWatch) take() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	p := w.peak
	w.peak = 0
	return p
}

// stop ends the watch.
func (w *heapWatch) stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
}
