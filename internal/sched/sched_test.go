package sched

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"tracefw/internal/clock"
)

// recorder captures scheduling events as strings for assertions.
type recorder struct {
	evs []string
}

func (r *recorder) OnDispatch(node int, tid int32, cpu int, now clock.Time) {
	r.evs = append(r.evs, fmt.Sprintf("D n%d t%d c%d @%d", node, tid, cpu, now))
}
func (r *recorder) OnUndispatch(node int, tid int32, cpu int, reason UndispatchReason, now clock.Time) {
	r.evs = append(r.evs, fmt.Sprintf("U n%d t%d c%d r%d @%d", node, tid, cpu, reason, now))
}
func (r *recorder) OnThreadStart(node int, tid int32, now clock.Time) {
	r.evs = append(r.evs, fmt.Sprintf("S n%d t%d @%d", node, tid, now))
}

func TestSingleThreadCompute(t *testing.T) {
	rec := &recorder{}
	s := New(Config{Nodes: 1, CPUsPerNode: 1, Quantum: 10 * clock.Millisecond}, rec)
	var done clock.Time
	s.Spawn(0, func(th *Thread) {
		th.Compute(25 * clock.Millisecond)
		done = th.Now()
	})
	end := s.Run()
	if done != 25*clock.Millisecond {
		t.Fatalf("compute finished at %v, want 25ms", done)
	}
	if end != done {
		t.Fatalf("sim ended at %v", end)
	}
	// One dispatch, no preemption (nobody waiting), one exit undispatch.
	want := []string{"S n0 t0 @0", "D n0 t0 c0 @0", "U n0 t0 c0 r2 @25000000"}
	if got := strings.Join(rec.evs, "; "); got != strings.Join(want, "; ") {
		t.Fatalf("events:\n got %s\nwant %s", got, strings.Join(want, "; "))
	}
}

func TestTwoThreadsTimeSliceOneCPU(t *testing.T) {
	rec := &recorder{}
	s := New(Config{Nodes: 1, CPUsPerNode: 1, Quantum: 10 * clock.Millisecond}, rec)
	var end0, end1 clock.Time
	s.Spawn(0, func(th *Thread) { th.Compute(20 * clock.Millisecond); end0 = th.Now() })
	s.Spawn(0, func(th *Thread) { th.Compute(20 * clock.Millisecond); end1 = th.Now() })
	s.Run()
	// Interleaved 10ms slices: t0 runs 0-10, t1 10-20, t0 20-30, t1 30-40.
	if end0 != 30*clock.Millisecond || end1 != 40*clock.Millisecond {
		t.Fatalf("ends: %v %v, want 30ms 40ms", end0, end1)
	}
	// Quantum undispatches must appear.
	joined := strings.Join(rec.evs, "; ")
	if !strings.Contains(joined, "U n0 t0 c0 r0 @10000000") {
		t.Fatalf("missing quantum preemption of t0: %s", joined)
	}
}

func TestTwoCPUsRunInParallel(t *testing.T) {
	s := New(Config{Nodes: 1, CPUsPerNode: 2, Quantum: 10 * clock.Millisecond}, nil)
	var end0, end1 clock.Time
	s.Spawn(0, func(th *Thread) { th.Compute(50 * clock.Millisecond); end0 = th.Now() })
	s.Spawn(0, func(th *Thread) { th.Compute(50 * clock.Millisecond); end1 = th.Now() })
	s.Run()
	if end0 != 50*clock.Millisecond || end1 != 50*clock.Millisecond {
		t.Fatalf("parallel computes ended at %v, %v", end0, end1)
	}
}

func TestBlockUnblock(t *testing.T) {
	s := New(Config{Nodes: 1, CPUsPerNode: 1}, nil)
	var wakeTime clock.Time
	var blocked *Thread
	blocked = s.Spawn(0, func(th *Thread) {
		th.Block()
		wakeTime = th.Now()
	})
	s.Spawn(0, func(th *Thread) {
		th.Compute(5 * clock.Millisecond)
		th.Sim().Unblock(blocked)
	})
	s.Run()
	if wakeTime != 5*clock.Millisecond {
		t.Fatalf("woke at %v, want 5ms", wakeTime)
	}
}

func TestSleepDoesNotHoldCPU(t *testing.T) {
	s := New(Config{Nodes: 1, CPUsPerNode: 1}, nil)
	var computeEnd, sleepEnd clock.Time
	s.Spawn(0, func(th *Thread) {
		th.Sleep(100 * clock.Millisecond)
		sleepEnd = th.Now()
	})
	s.Spawn(0, func(th *Thread) {
		th.Compute(30 * clock.Millisecond)
		computeEnd = th.Now()
	})
	s.Run()
	if computeEnd != 30*clock.Millisecond {
		t.Fatalf("computer finished at %v; sleeper held the CPU", computeEnd)
	}
	if sleepEnd != 100*clock.Millisecond {
		t.Fatalf("sleeper woke at %v", sleepEnd)
	}
}

func TestAffinityPrefersLastCPU(t *testing.T) {
	rec := &recorder{}
	s := New(Config{Nodes: 1, CPUsPerNode: 2, Quantum: 10 * clock.Millisecond}, rec)
	s.Spawn(0, func(th *Thread) {
		th.Compute(5 * clock.Millisecond)
		th.Sleep(20 * clock.Millisecond)
		th.Compute(5 * clock.Millisecond)
	})
	s.Run()
	// Both computes must land on CPU 0 (free on re-dispatch).
	var cpus []string
	for _, e := range rec.evs {
		if strings.HasPrefix(e, "D ") {
			cpus = append(cpus, e)
		}
	}
	if len(cpus) != 2 || !strings.Contains(cpus[0], "c0") || !strings.Contains(cpus[1], "c0") {
		t.Fatalf("dispatches: %v", cpus)
	}
}

func TestMigrationWhenLastCPUBusy(t *testing.T) {
	rec := &recorder{}
	s := New(Config{Nodes: 1, CPUsPerNode: 2, Quantum: 10 * clock.Millisecond}, rec)
	// t0 and t1 fill both CPUs; t2 waits. At the 10ms quantum boundary t0
	// is preempted and t2 takes CPU 0; t1 is then preempted and t0 is
	// re-dispatched — its old CPU 0 is busy, so it must migrate to CPU 1.
	s.Spawn(0, func(th *Thread) { th.Compute(30 * clock.Millisecond) })
	s.Spawn(0, func(th *Thread) { th.Compute(30 * clock.Millisecond) })
	s.Spawn(0, func(th *Thread) { th.Compute(5 * clock.Millisecond) })
	s.Run()
	var t0Dispatch []string
	for _, e := range rec.evs {
		if strings.HasPrefix(e, "D n0 t0 ") {
			t0Dispatch = append(t0Dispatch, e)
		}
	}
	if len(t0Dispatch) < 2 {
		t.Fatalf("t0 dispatches: %v", t0Dispatch)
	}
	if !strings.Contains(t0Dispatch[0], "c0") {
		t.Fatalf("first dispatch not on c0: %v", t0Dispatch)
	}
	if !strings.Contains(t0Dispatch[1], "c1") {
		t.Fatalf("t0 did not migrate to c1: %v", t0Dispatch)
	}
}

func TestManyThreadsFairProgress(t *testing.T) {
	s := New(Config{Nodes: 1, CPUsPerNode: 2, Quantum: clock.Millisecond}, nil)
	const n = 8
	ends := make([]clock.Time, n)
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(0, func(th *Thread) {
			th.Compute(10 * clock.Millisecond)
			ends[i] = th.Now()
		})
	}
	s.Run()
	// 8 threads × 10ms on 2 CPUs = 40ms of work; with fair round-robin
	// slicing every thread ends within one round-robin cycle (8/2 × 1ms)
	// of the 40ms makespan, and the last finisher defines it exactly.
	var last clock.Time
	for i, e := range ends {
		if e < 36*clock.Millisecond || e > 40*clock.Millisecond {
			t.Fatalf("thread %d ended at %v", i, e)
		}
		if e > last {
			last = e
		}
	}
	if last != 40*clock.Millisecond {
		t.Fatalf("makespan %v, want 40ms", last)
	}
}

func TestNodesAreIndependent(t *testing.T) {
	s := New(Config{Nodes: 2, CPUsPerNode: 1}, nil)
	var end0, end1 clock.Time
	s.Spawn(0, func(th *Thread) { th.Compute(10 * clock.Millisecond); end0 = th.Now() })
	s.Spawn(1, func(th *Thread) { th.Compute(10 * clock.Millisecond); end1 = th.Now() })
	s.Run()
	if end0 != 10*clock.Millisecond || end1 != 10*clock.Millisecond {
		t.Fatalf("cross-node interference: %v %v", end0, end1)
	}
}

func TestSpawnFromThread(t *testing.T) {
	s := New(Config{Nodes: 1, CPUsPerNode: 2}, nil)
	var childEnd clock.Time
	s.Spawn(0, func(th *Thread) {
		th.Compute(clock.Millisecond)
		th.Sim().Spawn(0, func(c *Thread) {
			c.Compute(clock.Millisecond)
			childEnd = c.Now()
		})
		th.Compute(clock.Millisecond)
	})
	s.Run()
	if childEnd != 2*clock.Millisecond {
		t.Fatalf("child ended at %v, want 2ms", childEnd)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		rec := &recorder{}
		s := New(Config{Nodes: 2, CPUsPerNode: 2, Quantum: clock.Millisecond}, rec)
		for n := 0; n < 2; n++ {
			for i := 0; i < 5; i++ {
				d := clock.Time(i+1) * clock.Millisecond
				s.Spawn(n, func(th *Thread) {
					th.Compute(d)
					th.Sleep(d)
					th.Compute(d)
				})
			}
		}
		s.Run()
		return rec.evs
	}
	a, b := run(), run()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("two identical runs produced different event sequences")
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected deadlock panic")
		} else if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	s := New(Config{Nodes: 1, CPUsPerNode: 1}, nil)
	s.Spawn(0, func(th *Thread) { th.Block() })
	s.Run()
}

func TestUnblockNonBlockedPanics(t *testing.T) {
	s := New(Config{Nodes: 1, CPUsPerNode: 1}, nil)
	var panicked bool
	other := s.Spawn(0, func(th *Thread) { th.Compute(5 * clock.Millisecond) })
	s.Spawn(0, func(th *Thread) {
		defer func() { panicked = recover() != nil }()
		th.Sim().Unblock(other) // other is ready/running, not blocked
	})
	s.Run()
	if !panicked {
		t.Fatal("Unblock of non-blocked thread did not panic")
	}
}

func TestZeroComputeIsNoop(t *testing.T) {
	rec := &recorder{}
	s := New(Config{Nodes: 1, CPUsPerNode: 1}, rec)
	s.Spawn(0, func(th *Thread) {
		th.Compute(0)
		th.Compute(-5)
	})
	if end := s.Run(); end != 0 {
		t.Fatalf("zero compute advanced time to %v", end)
	}
}

func TestEventOrderingStableAtSameTime(t *testing.T) {
	s := New(Config{Nodes: 1, CPUsPerNode: 1}, nil)
	var order []int
	s.Spawn(0, func(th *Thread) {
		sim := th.Sim()
		for i := 0; i < 5; i++ {
			i := i
			sim.At(10*clock.Millisecond, func() { order = append(order, i) })
		}
		th.Sleep(20 * clock.Millisecond)
	})
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config accepted")
		}
	}()
	New(Config{Nodes: 0, CPUsPerNode: 1}, nil)
}

func TestQuantumPreemptionOnlyWhenContended(t *testing.T) {
	rec := &recorder{}
	s := New(Config{Nodes: 1, CPUsPerNode: 1, Quantum: clock.Millisecond}, rec)
	s.Spawn(0, func(th *Thread) { th.Compute(100 * clock.Millisecond) })
	s.Run()
	for _, e := range rec.evs {
		if strings.Contains(e, "r0") {
			t.Fatalf("uncontended thread was preempted: %v", rec.evs)
		}
	}
}

// TestNoThreadOutlivesRun: however Run ends — normal return, deadlock
// panic, a workload panic coming through — every thread's coroutine is
// gone when it does, including threads that never got a CPU, and a
// stopped thread unwinds through its deferred calls on the way out.
func TestNoThreadOutlivesRun(t *testing.T) {
	for _, tc := range []struct {
		name      string
		spawn     func(s *Sim, unwound *int)
		wantPanic string
		unwound   int
	}{
		{"normal return", func(s *Sim, unwound *int) {
			for i := 0; i < 4; i++ {
				s.Spawn(0, func(th *Thread) {
					defer func() { *unwound++ }()
					th.Compute(clock.Millisecond)
					th.Sleep(clock.Millisecond)
				})
			}
		}, "", 4},
		{"deadlock", func(s *Sim, unwound *int) {
			for i := 0; i < 3; i++ {
				s.Spawn(0, func(th *Thread) {
					defer func() { *unwound++ }()
					th.Compute(clock.Millisecond)
					th.Block()
				})
			}
		}, "deadlock", 3},
		{"workload panic", func(s *Sim, unwound *int) {
			// One CPU: the first thread blocks, the second panics
			// mid-run, the third is still waiting for its first dispatch.
			s.Spawn(0, func(th *Thread) {
				defer func() { *unwound++ }()
				th.Block()
			})
			s.Spawn(0, func(th *Thread) {
				th.Compute(clock.Millisecond)
				panic("workload bug")
			})
			s.Spawn(0, func(th *Thread) { *unwound += 100 })
		}, "workload bug", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			s := New(Config{Nodes: 1, CPUsPerNode: 1}, nil)
			unwound := 0
			tc.spawn(s, &unwound)
			func() {
				defer func() {
					r := recover()
					if tc.wantPanic == "" && r != nil {
						t.Fatalf("unexpected panic: %v", r)
					}
					if tc.wantPanic != "" && !strings.Contains(fmt.Sprint(r), tc.wantPanic) {
						t.Fatalf("Run panicked with %v, want %q", r, tc.wantPanic)
					}
				}()
				s.Run()
			}()
			if after := runtime.NumGoroutine(); after != before {
				t.Fatalf("%d goroutines before New, %d after Run", before, after)
			}
			if unwound != tc.unwound {
				t.Fatalf("%d deferred calls ran in thread bodies, want %d", unwound, tc.unwound)
			}
		})
	}
}
