package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// roleEnv selects the server role when the benchmark binary starts
// itself as the system under test.
const roleEnv = "PRORDBENCH_ROLE"

// userHZ is the kernel's clock-tick rate for /proc CPU times: USER_HZ,
// fixed at 100 by the Linux ABI on x86 and arm.
const userHZ = 100

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat
// ("self" for the calling process).
func procCPU(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: unexpected format", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%s/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// procRSS returns a process's resident set size (VmRSS) in MB.
func procRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%s/status: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmRSS", pid)
}

// cpuModel returns the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the program under test: a SHA-256 over the
// path and contents of every .go file and go.mod under root, skipping
// dot directories (build output). The checkout may not be a git
// repository, so this stands in for the commit.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// server is one running system-under-test process.
type server struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	ready readyInfo
	// setup is process start to ready-to-serve, timed from outside.
	setup time.Duration
	done  chan error
}

// readyTimeout bounds a server's set-up: trace generation, mining and
// listener start take about a second.
const readyTimeout = 60 * time.Second

// startServer starts the benchmark binary in its server role and waits
// for its READY line.
func startServer(w workload, seed int64, traced bool) (*server, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-trace="+strconv.FormatBool(traced))
	// The server runs with the deployed default GOMAXPROCS, whatever the
	// generator's environment says.
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Env = append(cmd.Env, roleEnv+"=server")
	cmd.Stderr = os.Stderr
	// The server also exits when its stdin closes, which covers a
	// generator that dies before stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stdin: stdin, done: make(chan error, 1)}
	lines := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		lines <- line
		_, _ = io.Copy(io.Discard, stdout)
		s.done <- cmd.Wait()
	}()
	select {
	case line := <-lines:
		s.setup = time.Since(start)
		payload, ok := strings.CutPrefix(strings.TrimSpace(line), "READY ")
		if !ok {
			s.kill()
			return nil, fmt.Errorf("server for %s did not start (first line %q)", w.Name, line)
		}
		if err := json.Unmarshal([]byte(payload), &s.ready); err != nil {
			s.kill()
			return nil, fmt.Errorf("server READY line: %w", err)
		}
		return s, nil
	case <-time.After(readyTimeout):
		s.kill()
		return nil, fmt.Errorf("server for %s not ready after %v", w.Name, readyTimeout)
	}
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// stop closes the server's stdin and waits for it to exit, killing it
// if it has not within a few seconds.
func (s *server) stop() error {
	s.stdin.Close()
	select {
	case err := <-s.done:
		return err
	case <-time.After(5 * time.Second):
		s.kill()
		return errors.New("server did not exit on stdin close; killed")
	}
}

// kill ends the server at once and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	s.stdin.Close()
	<-s.done
}
