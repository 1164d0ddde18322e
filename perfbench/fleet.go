package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fleetFlags are the flowserve flags every run uses besides its addresses;
// the report prints them next to the results.
var fleetFlags = []string{"-local-slots", "0", "-dop", "4", "-max-concurrent", "2"}

const (
	// readyTimeout bounds a process's start-up: a worker printing its
	// address, or flowserve answering /healthz (its start-up includes
	// worker calibration, which gives up after 10s).
	readyTimeout = 30 * time.Second
	// stopGrace is how long a stopped process may drain after SIGTERM
	// before it is killed.
	stopGrace = 5 * time.Second
)

// proc is one child process of the fleet. exited closes once Wait has
// reaped it.
type proc struct {
	name   string
	cmd    *exec.Cmd
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// fleet is two flowworker processes and one flowserve pointed at them.
type fleet struct {
	procs   []*proc // workers first, flowserve last
	workers []string
	url     string // flowserve base URL
}

// startFleet spawns the workers and flowserve, and returns once flowserve
// answers /healthz. On error every process it started is already stopped.
func startFleet(ctx context.Context, binDir, workDir string, tag string) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	for i := 0; i < 2; i++ {
		p, addr, err := startWorker(ctx, filepath.Join(binDir, "flowworker"), workDir, fmt.Sprintf("%s-worker%d", tag, i))
		if p != nil {
			f.procs = append(f.procs, p)
		}
		if err != nil {
			return f, err
		}
		f.workers = append(f.workers, addr)
	}
	port, err := freePort()
	if err != nil {
		return f, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	args := append([]string{"-addr", addr, "-workers", strings.Join(f.workers, ","),
		"-spill-dir", filepath.Join(workDir, "spill")}, fleetFlags...)
	p, err := spawn(filepath.Join(binDir, "flowserve"), args, workDir, tag+"-flowserve", nil)
	if err != nil {
		return f, err
	}
	f.procs = append(f.procs, p)
	f.url = "http://" + addr
	return f, f.waitHealthy(ctx, p)
}

// spawn starts a child process with its standard error in a log file under
// workDir/logs. The child gets SIGKILL if the benchmark dies first.
func spawn(path string, args []string, workDir, name string, stdout *os.File) (*proc, error) {
	logDir := filepath.Join(workDir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(path, args...)
	cmd.Stdout = stdout
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// startWorker spawns a flowworker on an ephemeral port and reads the
// address it prints as its first line of standard output.
func startWorker(ctx context.Context, path, workDir, name string) (*proc, string, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, "", err
	}
	p, err := spawn(path, []string{"-listen", "127.0.0.1:0"}, workDir, name, w)
	w.Close()
	if err != nil {
		r.Close()
		return nil, "", err
	}
	line := make(chan string, 1)
	go func() {
		// Read the address, then drain until the worker exits and closes
		// its end of the pipe.
		defer r.Close()
		s := bufio.NewScanner(r)
		if s.Scan() {
			line <- s.Text()
		}
		io.Copy(io.Discard, r)
	}()
	select {
	case addr := <-line:
		return p, strings.TrimSpace(addr), nil
	case <-p.exited:
		return p, "", fmt.Errorf("%s exited before printing its address: %v", name, p.err)
	case <-time.After(readyTimeout):
		return p, "", fmt.Errorf("%s printed no address within %v", name, readyTimeout)
	case <-ctx.Done():
		return p, "", context.Cause(ctx)
	}
}

// freePort asks the kernel for an unused loopback port. flowserve prints
// no address of its own, so the port is chosen here and handed over.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until flowserve answers 200, failing if the
// process exits (for example because another process holds the port) or
// the deadline passes.
func (f *fleet) waitHealthy(ctx context.Context, p *proc) error {
	deadline := time.Now().Add(readyTimeout)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(f.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during start-up: %v", p.name, p.err)
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within %v (last error: %v)", p.name, readyTimeout, err)
		}
	}
}

// stop terminates flowserve and then the workers, and reaps each one.
func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		p := f.procs[i]
		select {
		case <-p.exited:
			continue
		default:
		}
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
		case <-time.After(stopGrace):
			p.cmd.Process.Kill()
			<-p.exited
		}
	}
	f.procs = nil
}

// alive reports an error naming any fleet process that has exited.
func (f *fleet) alive() error {
	for _, p := range f.procs {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited: %v", p.name, p.err)
		default:
		}
	}
	return nil
}

// endpointClient reads flowserve's status endpoints.
var endpointClient = &http.Client{Timeout: 30 * time.Second}

// getJSON decodes the JSON answer of a GET on flowserve.
func (f *fleet) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := endpointClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// ------------------------------------------------------------ /proc readers

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// cpuTime returns the user plus system CPU time the fleet's processes
// have used so far.
func (f *fleet) cpuTime() (time.Duration, error) {
	var ticks int64
	for _, p := range f.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime
		// are the 14th and 15th fields of the whole line.
		s := string(b)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", p.cmd.Process.Pid)
		}
		for _, fld := range fields[11:13] {
			n, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return 0, err
			}
			ticks += n
		}
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS returns the sum of the fleet processes' resident-set high-water
// marks (VmHWM) in bytes.
func (f *fleet) peakRSS() (int64, error) {
	var total int64
	for _, p := range f.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
				if err != nil {
					return 0, err
				}
				total += kb << 10
				found = true
			}
		}
		if !found {
			return 0, errors.New("no VmHWM in /proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
		}
	}
	return total, nil
}
