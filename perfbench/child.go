package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one `pipemap -serve -ingest` server process.
type child struct {
	cmd   *exec.Cmd
	addr  string
	setup time.Duration // exec to the first 200 on /readyz
	log   *logBuffer
	done  chan struct{} // closed once the process has exited
	err   error         // Wait's result, valid after done
}

// logBuffer collects the child's output and reports the server address
// from its "serving ... on http://ADDR" banner.
type logBuffer struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

var bannerRE = regexp.MustCompile(`serving \S+ ingestion on http://(\S+) `)

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.found {
		if m := bannerRE.FindSubmatch(l.buf.Bytes()); m != nil {
			l.found = true
			l.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startChild execs the binary with its default ingest flags and waits
// until /readyz answers 200.
func startChild(bin, root string, w workload) (*child, error) {
	args := []string{"-serve", "127.0.0.1:0", "-ingest", w.app}
	if w.size > 0 {
		args = append(args, "-ingest-size", strconv.Itoa(w.size))
	}
	args = append(args, w.spec)
	c := &child{
		cmd:  exec.Command(bin, args...),
		log:  &logBuffer{addr: make(chan string, 1)},
		done: make(chan struct{}),
	}
	c.cmd.Dir = root
	c.cmd.Stdout = c.log
	c.cmd.Stderr = c.log
	// The server must not outlive the benchmark, even if it is killed.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	fail := func(err error) (*child, error) {
		c.cmd.Process.Kill()
		<-c.done
		return nil, fmt.Errorf("%w\n%s", err, c.log.String())
	}
	select {
	case c.addr = <-c.log.addr:
	case <-c.done:
		return fail(fmt.Errorf("pipemap exited before serving: %v", c.err))
	case <-time.After(60 * time.Second):
		return fail(fmt.Errorf("pipemap printed no serving banner within 60s"))
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := probe.Get("http://" + c.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.setup = time.Since(t0)
				probe.CloseIdleConnections()
				return c, nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			return fail(fmt.Errorf("/readyz not 200 within 60s"))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// drainLine is the server's closing accounting.
type drainLine struct {
	flushed, admitted, completed, failed, shed int64
}

var drainRE = regexp.MustCompile(`drain complete: (\d+) request\(s\) flushed; lifetime admitted (\d+), completed (\d+), failed (\d+), shed (\d+)`)

// stop sends SIGTERM, waits for the drain, and parses the drain line. An
// unclean exit or a missing line is an error.
func (c *child) stop() (drainLine, error) {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(60 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
		return drainLine{}, fmt.Errorf("pipemap did not exit within 60s of SIGTERM")
	}
	if c.err != nil {
		return drainLine{}, fmt.Errorf("pipemap exit: %v\n%s", c.err, c.log.String())
	}
	m := drainRE.FindStringSubmatch(c.log.String())
	if m == nil {
		return drainLine{}, fmt.Errorf("no drain line in pipemap output:\n%s", c.log.String())
	}
	var v [5]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(m[i+1], 10, 64)
	}
	return drainLine{flushed: v[0], admitted: v[1], completed: v[2], failed: v[3], shed: v[4]}, nil
}

// kill ends the process without a drain; for error paths.
func (c *child) kill() {
	select {
	case <-c.done:
	default:
		c.cmd.Process.Kill()
		<-c.done
	}
}

// reconcile checks the server's drain accounting against the generator's
// tallies of everything it sent to this server.
func reconcile(d drainLine, t tally) error {
	var errs []string
	check := func(what string, server, client int64) {
		if server != client {
			errs = append(errs, fmt.Sprintf("%s: server %d, generator %d", what, server, client))
		}
	}
	check("completed vs 200s", d.completed, t.ok+t.wrong)
	check("failed vs 5xx", d.failed, t.s5xx)
	check("shed vs 429+503", d.shed, t.s429+t.s503)
	check("admitted+admission sheds vs sent", d.completed+d.failed+d.shed, t.sent)
	if t.other+t.transport > 0 {
		errs = append(errs, fmt.Sprintf("%d other status(es), %d transport error(s)", t.other, t.transport))
	}
	if len(errs) > 0 {
		return fmt.Errorf("accounting mismatch: %s", strings.Join(errs, "; "))
	}
	return nil
}

// procCPU returns the process's user+sys CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc stat CPU times on Linux.
const clockTicks = 100

// procHWM returns the process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// hostSteal returns the machine's cumulative steal and total CPU time, in
// clock ticks, from the aggregate line of /proc/stat. Steal is time the
// hypervisor ran something else while a virtual CPU wanted to run.
func hostSteal() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
