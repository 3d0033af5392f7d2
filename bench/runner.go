package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/cluster"
)

// span is one traced interval: a client call into the engine, a probe, or
// the section that caused them. Spans are recorded from the benchmark's own
// files, around the calls into each layer; spans inside the engine are a
// later change (README.md, "What is out of scope").
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Op      int    `json:"op"`     // operation index within its stream, -1 for none
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // offset from the trace origin
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Each stream appends its
// operation spans to its own preallocated slice, so recording one is an
// index store, not a lock; sections and probes go through begin/end.
type tracer struct {
	origin  time.Time
	streams [][]span
	mu      sync.Mutex
	other   []span // sections and probes; a span's id is its index here
}

func newTracer(in *instance) *tracer {
	t := &tracer{origin: time.Now(), streams: make([][]span, len(in.streams))}
	for i, s := range in.streams {
		t.streams[i] = make([]span, 0, len(s.ops)-s.warm)
	}
	return t
}

// begin opens a section or probe span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.other)
	t.other = append(t.other, span{ID: id, Parent: parent, Op: -1, Name: name, StartNs: int64(time.Since(t.origin))})
	return id
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.other[id].EndNs = int64(time.Since(t.origin))
}

// around records fn as a span.
func (t *tracer) around(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// all returns every span: sections and probes under their ids, then each
// stream's operation spans numbered after them.
func (t *tracer) all() []span {
	out := append([]span(nil), t.other...)
	for _, ss := range t.streams {
		for _, s := range ss {
			s.ID = len(out)
			out = append(out, s)
		}
	}
	return out
}

// traced reports whether timed operation i of a stream is traced: whole
// rotation cycles alternate, so traced and untraced operations see the
// same shape mix and the same stretch of history.
func traced(i, period int) bool { return (i/period)%2 == 1 }

// timedRun is what the timed section yields.
type timedRun struct {
	samples   [][]sample // per stream, in issue order; failed operations absent
	lateness  []time.Duration
	attempted int64
	failed    int64
	firstErr  error
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	msgs      int64
	bytes     int64
}

func (r *timedRun) merged() []sample {
	var all []sample
	for _, s := range r.samples {
		all = append(all, s...)
	}
	return all
}

func (r *timedRun) fail(err error) {
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.failed++
}

// warmUp runs every stream's warm-up prefix, in order, untimed. It is part
// of set-up: plan caches fill, replicas subscribe, lazy allocations happen.
func warmUp(in *instance) error {
	errs := make([]error, len(in.streams))
	do := in.executor()
	var wg sync.WaitGroup
	for si, s := range in.streams {
		wg.Add(1)
		go func(si int, s *stream) {
			defer wg.Done()
			for i := 0; i < s.warm; i++ {
				if err := do(si, i); err != nil {
					errs[si] = fmt.Errorf("warm-up %s op %d: %w", s.name, i, err)
					return
				}
			}
		}(si, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// executor returns the function that performs operation i of stream si on
// the engine and checks its result, one session per stream.
func (in *instance) executor() func(si, i int) error {
	sess := make([]*cluster.Session, len(in.streams))
	for i := range sess {
		sess[i] = in.e.NewSession()
	}
	return func(si, i int) error {
		o := &in.streams[si].ops[i]
		rel, err := o.exec(context.Background(), in.e, sess[si])
		if err != nil {
			return err
		}
		return o.check(rel)
	}
}

// runTimed executes the timed section: every stream's operations after its
// warm-up prefix, one goroutine per stream, each performed by do. A
// closed-loop stream sends its next operation when the previous one
// completes; an open-loop stream sends operation k when it is due
// (start + k/rate) — synchronously, so a stall delays what follows — and
// times it from the due instant. wallCap stops the section; operations not
// started by then count as failed. tr is nil for an untraced run. onSlice,
// if set, is called by whichever stream completes the last operation of
// each of the nSlices op-count slices.
func runTimed(streams []*stream, shapes []string, do func(si, i int) error, wallCap time.Duration, tr *tracer, runSpan int, onSlice func()) *timedRun {
	total := 0
	for _, s := range streams {
		total += len(s.ops) - s.warm
	}
	res := &timedRun{attempted: int64(total), samples: make([][]sample, len(streams))}
	late := make([][]time.Duration, len(streams))
	for si, s := range streams {
		res.samples[si] = make([]sample, 0, len(s.ops)-s.warm)
		late[si] = make([]time.Duration, 0, len(s.ops)-s.warm)
	}
	sliceOps := int64(total / nSlices)
	var completed atomic.Int64
	var mu sync.Mutex // guards res.fail
	var wg sync.WaitGroup

	u0 := readUsage()
	start := time.Now()
	var traceOff time.Duration
	if tr != nil {
		traceOff = start.Sub(tr.origin)
	}
	for si, s := range streams {
		wg.Add(1)
		go func(si int, s *stream) {
			defer wg.Done()
			var prevEnd time.Duration
			for i := s.warm; i < len(s.ops); i++ {
				k := i - s.warm
				sent := time.Since(start)
				base := sent
				if s.rate > 0 {
					due := time.Duration(float64(k) / s.rate * float64(time.Second))
					if sent < due {
						time.Sleep(due - sent)
						sent = time.Since(start)
					}
					base = due
					late[si] = append(late[si], sent-due)
				} else {
					// A closed-loop client is "late" by its own turnaround:
					// the gap between one completion and the next send.
					late[si] = append(late[si], sent-prevEnd)
				}
				if sent > wallCap {
					mu.Lock()
					for ; i < len(s.ops); i++ {
						res.fail(fmt.Errorf("%s op %d: not started within the %v wall cap", s.name, i, wallCap))
					}
					mu.Unlock()
					return
				}
				err := do(si, i)
				end := time.Since(start)
				prevEnd = end
				o := &s.ops[i]
				if err != nil {
					mu.Lock()
					res.fail(fmt.Errorf("%s op %d (%s): %w", s.name, i, shapes[o.shape], err))
					mu.Unlock()
					continue
				}
				withSpan := tr != nil && traced(k, s.period)
				if withSpan {
					tr.streams[si] = append(tr.streams[si], span{
						Parent: runSpan, Op: i, Name: shapes[o.shape],
						StartNs: int64(traceOff + sent), EndNs: int64(traceOff + end),
					})
				}
				res.samples[si] = append(res.samples[si], sample{lat: end - base, end: end, query: o.q != nil, shape: o.shape, traced: withSpan})
				if onSlice != nil && sliceOps > 0 && completed.Add(1)%sliceOps == 0 {
					onSlice()
				}
			}
		}(si, s)
	}
	wg.Wait()
	res.wall = time.Since(start)
	u1 := readUsage()
	res.cpu = u1.cpu - u0.cpu
	res.mallocs = u1.mallocs - u0.mallocs
	for _, l := range late {
		res.lateness = append(res.lateness, l...)
	}
	return res
}

// runSection runs the instance's timed section on its engine and adds the
// modelled-plane traffic counts.
func runSection(in *instance, wallCap time.Duration, tr *tracer, runSpan int, onSlice func()) *timedRun {
	msgs0, bytes0 := in.e.Net.TotalMessages(), in.e.Net.TotalBytes()
	run := runTimed(in.streams, in.shapes, in.executor(), wallCap, tr, runSpan, onSlice)
	run.msgs = in.e.Net.TotalMessages() - msgs0
	run.bytes = in.e.Net.TotalBytes() - bytes0
	return run
}
