package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one finwld process booted on loopback with its admin
// listener on, so /metrics and /debug/vars are readable from outside.
type child struct {
	cmd   *exec.Cmd
	base  string // http://host:port of the service listener
	admin string // http://host:port of the admin listener

	drained sync.WaitGroup // stdout/stderr drain goroutines
	mu      sync.Mutex
	stderr  bytes.Buffer // last bytes of stderr, for failure reports
	waited  bool
}

// bootChild execs finwld and returns once both listeners are bound.
// The child is killed if this process dies first (Pdeathsig), and on
// every error path here.
func bootChild(bin string) (*child, error) {
	c := &child{cmd: exec.Command(bin, "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-quiet")}
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrs := make(chan [2]string, 1)
	c.drained.Add(2)
	go func() {
		defer c.drained.Done()
		var a [2]string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "finwld admin listening on "); ok {
				a[1] = v
			} else if v, ok := strings.CutPrefix(line, "finwld listening on "); ok {
				a[0] = v
				addrs <- a
			}
		}
		// Keep reading until the child closes stdout, so it never blocks
		// on a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
	}()
	go func() {
		defer c.drained.Done()
		buf := make([]byte, 4096)
		for {
			n, err := stderr.Read(buf)
			c.mu.Lock()
			c.stderr.Write(buf[:n])
			if c.stderr.Len() > 1<<16 {
				c.stderr.Next(c.stderr.Len() - 1<<15)
			}
			c.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	select {
	case a := <-addrs:
		if a[1] == "" {
			c.stop()
			return nil, errors.New("finwld printed no admin address")
		}
		c.base, c.admin = "http://"+a[0], "http://"+a[1]
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, fmt.Errorf("finwld did not report its listeners within 30s: %s", c.stderrTail())
	}
	return c, nil
}

// waitHealthy polls /healthz until it answers 200.
func (c *child) waitHealthy(client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(c.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("finwld not healthy within 30s (last error %v): %s", err, c.stderrTail())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the child and reaps it and its drain goroutines. It is
// idempotent.
func (c *child) stop() {
	c.mu.Lock()
	done := c.waited
	c.waited = true
	c.mu.Unlock()
	if done {
		return
	}
	_ = c.cmd.Process.Kill() // an already-exited child needs no kill
	c.drained.Wait()
	_ = c.cmd.Wait() // the kill makes the exit status uninteresting
}

func (c *child) stderrTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.TrimSpace(c.stderr.String())
}

// procStat is the child's resource use read from /proc.
type procStat struct {
	cpuTicks int64   // utime + stime, in clock ticks
	hwmKB    float64 // VmHWM
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

func (c *child) procStat() (procStat, error) {
	var ps procStat
	pid := c.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return ps, err
		}
		ps.cpuTicks += v
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			ps.hwmKB, err = strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return ps, err
		}
	}
	return ps, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// snapshot is everything read from the child at one instant.
type snapshot struct {
	prom  map[string]float64
	alloc float64 // memstats.TotalAlloc, bytes
	numGC float64
	proc  procStat
}

// snapshot reads /metrics, /debug/vars memstats and /proc.
func (c *child) snapshot(client *http.Client) (snapshot, error) {
	var s snapshot
	text, err := get(client, c.admin+"/metrics")
	if err != nil {
		return s, err
	}
	s.prom = parseProm(text)
	vars, err := get(client, c.admin+"/debug/vars")
	if err != nil {
		return s, err
	}
	var v struct {
		Memstats struct {
			TotalAlloc float64
			NumGC      float64
		} `json:"memstats"`
	}
	if err := json.Unmarshal(vars, &v); err != nil {
		return s, fmt.Errorf("decode /debug/vars: %w", err)
	}
	s.alloc, s.numGC = v.Memstats.TotalAlloc, v.Memstats.NumGC
	s.proc, err = c.procStat()
	return s, err
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// parseProm reads Prometheus text exposition into name{labels} → value.
func parseProm(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
