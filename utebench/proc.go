package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// bench is the state of one workload run: where the built commands and
// scratch files live, the span recorder, and the operation ledger.
type bench struct {
	root string // checkout root (holds go.mod and cmd/)
	work string // everything the benchmark writes: <root>/.bench_build
	bin  string // built commands
	tmp  string // per-run scratch, removed at exit
	seed uint64

	childEnv []string
	tr       *tracer

	attempted atomic.Int64
	failed    atomic.Int64
	childCPU  atomic.Int64 // user+sys ns of finished batch children
	peakRSSKB atomic.Int64 // max ru_maxrss over batch children
	pollRSS   bool         // layer probes: read children's RSS from /proc (see watchHWM)

	daemons sync.Map // *daemon -> struct{}, so a fatal exit can reap them
}

// fail books one failed operation. Failures never abort a lap: the run
// finishes and reports them, which is what makes "failed: 0" mean
// something.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	fmt.Fprintf(os.Stderr, "utebench: FAILED OP: "+format+"\n", args...)
}

// check books one output check.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted.Add(1)
	if !ok {
		b.fail(format, args...)
	}
}

// procResult is what the harness learns about one finished subprocess.
type procResult struct {
	Wall  time.Duration
	CPU   time.Duration // user + system
	RSSKB int64         // ru_maxrss
	Out   []byte        // stdout
}

// run executes one of the repo's commands to completion as a span of
// the given layer. A non-zero exit is a failed operation and an error.
func (b *bench) run(parent *span, layer, tool string, args ...string) (procResult, error) {
	b.attempted.Add(1)
	sp := b.tr.start(parent, tool, layer)
	cmd := exec.Command(filepath.Join(b.bin, tool), args...)
	cmd.Env = b.childEnv
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Start()
	var polled func() int64
	if err == nil {
		if b.pollRSS {
			polled = watchHWM(cmd.Process.Pid)
		}
		err = cmd.Wait()
	}
	res := procResult{Wall: time.Since(t0), Out: out.Bytes()}
	sp.end()
	if ps := cmd.ProcessState; ps != nil {
		res.CPU = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			res.RSSKB = int64(ru.Maxrss)
		}
	}
	if polled != nil {
		res.RSSKB = polled()
	}
	b.childCPU.Add(int64(res.CPU))
	for {
		cur := b.peakRSSKB.Load()
		if res.RSSKB <= cur || b.peakRSSKB.CompareAndSwap(cur, res.RSSKB) {
			break
		}
	}
	sp.attr("cpu_ms", msOf(res.CPU))
	sp.attr("rss_kb", float64(res.RSSKB))
	if err != nil {
		b.fail("%s %s: %v: %s", tool, strings.Join(args, " "), err, lastLine(errb.Bytes()))
		return res, fmt.Errorf("%s: %w", tool, err)
	}
	return res, nil
}

func lastLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// watchHWM polls the child's VmHWM every 2 ms and returns a function
// that stops the polling and yields the last value read, KiB. The layer
// probes use it in place of ru_maxrss, which Linux cannot report below
// the harness's own peak: the vfork child shares the parent's address
// space until exec, and exec folds that space's high-water mark into the
// child's accounting. The last poll may miss a peak reached in the final
// milliseconds; no small tool here peaks that late.
func watchHWM(pid int) func() int64 {
	stop, done := make(chan struct{}), make(chan int64)
	go func() {
		var last int64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if kb := vmHWM(pid); kb > 0 {
				last = kb
			}
			select {
			case <-stop:
				done <- last
				return
			case <-tick.C:
			}
		}
	}()
	return func() int64 { close(stop); return <-done }
}

// vmHWM reads a process's peak resident set from /proc, KiB (0 if the
// process has no address space any more).
func vmHWM(pid int) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.Fields(v)[0], 10, 64)
			return kb
		}
	}
	return 0
}

// daemon is a long-running utetraced or uterouter child.
type daemon struct {
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once stdout is drained (process exited)
}

// startDaemon launches tool and waits for its "listening on" line.
func (b *bench) startDaemon(tool string, args ...string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(b.bin, tool), args...)
	cmd.Env = b.childEnv
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", tool, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	b.daemons.Store(d, struct{}{})
	urlc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, u, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case urlc <- strings.TrimSpace(u):
				default:
				}
			}
		}
	}()
	select {
	case d.url = <-urlc:
		return d, nil
	case <-d.done:
		b.stopDaemon(d)
		return nil, fmt.Errorf("%s exited before listening", tool)
	case <-time.After(10 * time.Second):
		b.stopDaemon(d)
		return nil, fmt.Errorf("%s did not start listening within 10s", tool)
	}
}

// stopDaemon asks for a clean shutdown, escalates to a kill, and
// returns only once the process has been reaped.
func (b *bench) stopDaemon(d *daemon) {
	if d == nil {
		return
	}
	if _, live := b.daemons.LoadAndDelete(d); !live {
		return
	}
	d.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-d.done:
	case <-time.After(8 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.cmd.Wait()
}

func (b *bench) stopAllDaemons() {
	b.daemons.Range(func(k, _ any) bool {
		b.stopDaemon(k.(*daemon))
		return true
	})
}

// hwmMB is the daemon's peak resident set since the last resetHWM, MiB.
func (d *daemon) hwmMB() float64 { return float64(vmHWM(d.cmd.Process.Pid)) / 1024 }

// cpu is the daemon's user+system time so far, from /proc/<pid>/stat
// (fields 14 and 15, in clock ticks of 1/100 s on Linux).
func (d *daemon) cpu() time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields resume
	// after its closing parenthesis.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * (time.Second / 100)
}

// selfCPU is the harness's own user+system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetHWM restarts the kernel's peak-RSS watermark for the daemon, so
// hwmMB reads the peak since now. Where /proc does not allow it the
// watermark simply keeps running from process start.
func (d *daemon) resetHWM() {
	os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0)
}

// calibrate times a fixed pure-CPU loop — the median of five rounds of
// about 10 ms on the dev host. Run before and after the laps, it shows
// host speed drift next to the numbers it would explain.
func calibrate() time.Duration {
	var rounds []float64
	x := uint64(88172645463325252)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		rounds = append(rounds, float64(time.Since(t0)))
	}
	if x == 0 { // keeps the loop observable
		fmt.Fprintln(io.Discard, x)
	}
	return time.Duration(median(rounds))
}
