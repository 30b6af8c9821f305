package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// buildDirName is where everything the benchmark builds or writes
// lives, relative to the repository root; .gitignore names it.
const buildDirName = ".bench_build"

// repoRoot walks up from the working directory to the directory whose
// go.mod declares the robustscaler module. The benchmark is started
// from the root (run.sh) or, under go test, from benchmark/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			bytes.HasPrefix(b, []byte("module robustscaler\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the robustscaler repository (no go.mod declaring module robustscaler above the working directory)")
		}
		dir = parent
	}
}

// buildScalerd compiles cmd/scalerd from the checkout's source into the
// build directory and returns the binary's path. go build is a no-op
// when the binary is current.
func buildScalerd(root string) (string, error) {
	out := filepath.Join(root, buildDirName, "scalerd")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/scalerd")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/scalerd: %v\n%s", err, b)
	}
	return out, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// scalerd is one running scalerd subprocess.
type scalerd struct {
	bin     string
	args    []string // everything but -listen
	addr    string
	logPath string
	cmd     *exec.Cmd
	exited  chan struct{} // closed once Wait returns
}

// startScalerd launches bin on a fresh loopback port with its log
// appended to logPath, and returns once /healthz answers 200 — or
// fails loudly if the process exits first or never turns healthy.
func startScalerd(bin, logPath string, args ...string) (*scalerd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &scalerd{bin: bin, args: args, addr: fmt.Sprintf("127.0.0.1:%d", port), logPath: logPath}
	if err := s.launch(); err != nil {
		return nil, err
	}
	if err := s.waitHealthy(20 * time.Second); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

func (s *scalerd) launch() error {
	logf, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	s.cmd = exec.Command(s.bin, append([]string{"-listen", s.addr}, s.args...)...)
	s.cmd.Stdout = logf
	s.cmd.Stderr = logf
	if err := s.cmd.Start(); err != nil {
		return fmt.Errorf("starting scalerd: %w", err)
	}
	s.exited = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // the exit status is irrelevant: kill() is how it normally ends
		close(done)
	}(s.cmd, s.exited)
	return nil
}

// waitHealthy polls /healthz on a fresh connection until it answers
// 200.
func (s *scalerd) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("scalerd exited before turning healthy; log:\n%s", s.logTail())
		default:
		}
		if c, err := dialLane(s.addr); err == nil {
			status, _, err := c.do(getRequest("/healthz"))
			c.close()
			if err == nil && status == 200 {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("scalerd not healthy after %v; log:\n%s", timeout, s.logTail())
}

// alive reports an early exit as an error.
func (s *scalerd) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("scalerd exited mid-run; log:\n%s", s.logTail())
	default:
		return nil
	}
}

// kill is kill -9 followed by a wait for the process to be gone.
func (s *scalerd) kill() {
	if s.cmd == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Kill() // already-exited is fine
	<-s.exited
}

// restart kills the process with SIGKILL and starts it again with the
// same arguments on the same address, returning the time from the kill
// to the first 200 from /healthz with ready() true.
func (s *scalerd) restart(ready func() bool) (time.Duration, error) {
	start := time.Now()
	s.kill()
	if err := s.launch(); err != nil {
		return 0, err
	}
	deadline := start.Add(30 * time.Second)
	for {
		if err := s.waitHealthy(time.Until(deadline)); err != nil {
			return 0, err
		}
		if ready() {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("scalerd healthy after restart but its workloads never all came back; log:\n%s", s.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *scalerd) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 4000 {
		b = b[len(b)-4000:]
	}
	return string(b)
}

// bootDamage scans the log for what a restore had to give up on: a
// write-ahead log reset or a quarantined snapshot means acknowledged
// state was dropped, which no workload here may cause.
func (s *scalerd) bootDamage() error {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.Contains(line, "quarantined workload") ||
			(strings.Contains(line, "wal replay:") && !strings.Contains(line, " 0 logs reset")) {
			return fmt.Errorf("scalerd boot dropped state: %s", line)
		}
	}
	return nil
}

// procUsage is a reading of /proc/<pid>: CPU consumed so far and the
// resident-set high-water mark.
type procUsage struct {
	cpu       time.Duration
	rssPeakMB float64
}

// clockTick is the kernel's USER_HZ; 100 on every Linux the Go
// toolchain supports.
const clockTick = 100

func (s *scalerd) usage() (procUsage, error) {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return procUsage{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return procUsage{}, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procUsage{}, fmt.Errorf("unparsable /proc/%s/stat", pid)
	}
	u := procUsage{cpu: time.Duration(utime+stime) * time.Second / clockTick}
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return procUsage{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return procUsage{}, fmt.Errorf("unparsable VmHWM in /proc/%s/status", pid)
			}
			u.rssPeakMB = kb / 1024
		}
	}
	return u, nil
}
