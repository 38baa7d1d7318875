package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles the program under test, before any timed region.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join(workDir, "bin", "ccserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ccserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("compiling ccserve: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr probes a free loopback port by binding 127.0.0.1:0.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// proc is one ccserve child.
type proc struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	done   chan struct{} // closed once Wait returned
}

var (
	procMu sync.Mutex
	procs  = map[*proc]bool{}
)

// startServer launches ccserve on a free port with the given arguments. The
// child is pinned to the harness CPU before exec: affinity is inherited
// across fork, so the launching thread takes the mask just for the fork.
func startServer(bin string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{addr: addr, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stderr = &p.stderr
	err = withThreadPinned(func() error { return p.cmd.Start() })
	if err != nil {
		return nil, fmt.Errorf("starting ccserve: %w", err)
	}
	procMu.Lock()
	procs[p] = true
	procMu.Unlock()
	go func() {
		_ = p.cmd.Wait() // the exit status of a killed child is not news
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// exited reports whether the child is gone (it crashed, or was killed).
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the child and waits until it has ended.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.done
	procMu.Lock()
	delete(procs, p)
	procMu.Unlock()
}

// killAll ends every child still running; called on every exit path.
func killAll() {
	procMu.Lock()
	live := make([]*proc, 0, len(procs))
	for p := range procs {
		live = append(live, p)
	}
	procMu.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// waitAnswer polls the server at 1 ms until req draws a 200 whose body
// satisfies ok — the "first correct answer" a restart is timed to. It fails
// fast when the child exits.
func (p *proc) waitAnswer(req []byte, ok func(body []byte) bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("ccserve exited during boot:\n%s", p.stderr.String())
		}
		c, err := dial(p.addr)
		if err == nil {
			status, body, err := c.do(req)
			c.close()
			if err == nil && status == 200 && ok(body) {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("ccserve on %s gave no correct answer within 60s:\n%s", p.addr, p.stderr.String())
}

// ---- /proc ------------------------------------------------------------

// cpuSeconds reads a process's consumed CPU time (user+system) from
// /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(string(data))
	if err != nil {
		return 0, err
	}
	return float64(ticks) / clockTicks, nil
}

// clockTicks is USER_HZ, 100 on every Linux port Go supports.
const clockTicks = 100

// parseStatCPU extracts utime+stime (in clock ticks) from the contents of
// /proc/<pid>/stat. The command name sits in parentheses and may itself hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat: no command name")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("malformed /proc stat: too few fields")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat: bad utime/stime")
	}
	return ut + st, nil
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) { return statusMB(pid, "VmHWM") }

// currentRSSMB reads a process's resident set as it stands (VmRSS).
func currentRSSMB(pid int) (float64, error) { return statusMB(pid, "VmRSS") }

func statusMB(pid int, key string) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(data), key)
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// parseStatusKB extracts one "Key:   123 kB" line of /proc/<pid>/status.
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			break
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no %s in /proc status", key)
}

// ---- pinning ----------------------------------------------------------

// All TCP phases run with the harness and every ccserve pinned to one CPU: a
// one-connection closed loop ping-pongs between client and server, and left
// to the scheduler the pair lands on one CPU or two from run to run, which
// halves or doubles the throughput (idle-halt + IPI wake-up per request).
// Pinned, the metric is the serial path length of a request.

var (
	pinOnce   sync.Once
	pinErr    error
	pinCPU    int
	origMask  cpuMask
	selfIsPin bool
	origProcs int
)

// pinInit picks the harness CPU: the last one the process may run on. The
// first is where a VM's interrupts and housekeeping threads land — on the
// reference box a pure spin loop varies 50% from chunk to chunk on CPU 0 and
// 3% on CPU 1.
func pinInit() error {
	pinOnce.Do(func() {
		if pinErr = getAffinity(0, &origMask); pinErr != nil {
			pinErr = fmt.Errorf("CPU pinning unavailable (sched_getaffinity: %v); the TCP workloads need it to repeat", pinErr)
			return
		}
		pinCPU = origMask.last()
		if pinCPU < 0 {
			pinErr = errors.New("CPU pinning unavailable: empty affinity mask")
		}
	})
	return pinErr
}

// withThreadPinned runs fn on an OS thread restricted to the harness CPU, so
// a process forked inside starts life pinned, before its exec.
func withThreadPinned(fn func() error) error {
	if err := pinInit(); err != nil {
		return err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var prev cpuMask
	if err := getAffinity(0, &prev); err != nil {
		return err
	}
	if err := setAffinity(0, single(pinCPU)); err != nil {
		return fmt.Errorf("CPU pinning unavailable (sched_setaffinity: %v)", err)
	}
	defer func() { _ = setAffinity(0, &prev) }() // restoring a mask we just read cannot fail
	return fn()
}

// pinSelf restricts every thread of the harness to the harness CPU; threads
// the runtime creates later inherit the mask from their creator. GOMAXPROCS
// drops to 1 with it: a second P on the same CPU only adds spinning threads
// that compete with the server for it. (A child pinned before exec sees one
// CPU and sizes its own GOMAXPROCS to 1.)
func pinSelf() error {
	if err := pinInit(); err != nil {
		return err
	}
	if err := setAffinityAll(os.Getpid(), single(pinCPU)); err != nil {
		return fmt.Errorf("CPU pinning unavailable (sched_setaffinity: %v)", err)
	}
	selfIsPin = true
	origProcs = runtime.GOMAXPROCS(1)
	return nil
}

// unpinSelf gives the harness its original CPUs back.
func unpinSelf() {
	if selfIsPin {
		_ = setAffinityAll(os.Getpid(), &origMask) // best effort: the run is over
		runtime.GOMAXPROCS(origProcs)
		selfIsPin = false
	}
}

// setAffinityAll applies a mask to every thread of a process.
func setAffinityAll(pid int, m *cpuMask) error {
	ents, err := os.ReadDir("/proc/" + strconv.Itoa(pid) + "/task")
	if err != nil {
		return err
	}
	for _, e := range ents {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err // ESRCH: the thread ended between listing and pinning
		}
	}
	return nil
}

// cpuMask is a kernel cpu_set_t of 1024 CPUs.
type cpuMask [16]uint64

func single(cpu int) *cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (uint(cpu) % 64)
	return &m
}

func (m *cpuMask) last() int {
	for w := len(m) - 1; w >= 0; w-- {
		if m[w] != 0 {
			return w*64 + bits.Len64(m[w]) - 1
		}
	}
	return -1
}
