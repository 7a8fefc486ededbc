package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env describes where the harness runs: the repository root (the
// parent module the benchmark is built against), the scratch
// directory inside it, and the tomod binary built there.
type env struct {
	root    string // repository root: holds go.mod (module repro) and cmd/tomod
	scratch string // <root>/bench/out: the tomod binary and per-run temp dirs
	tomod   string // built daemon binary
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module repro\n")) {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "tomod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root (go.mod of module repro with cmd/tomod) not found above the working directory")
		}
		dir = parent
	}
}

// newEnv locates the repository and builds cmd/tomod from source into
// the scratch directory. The go build cache makes a rebuild of
// unchanged sources a sub-second no-op, so every invocation builds:
// the binary can never be stale against the checkout.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, scratch: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(filepath.Join(e.scratch, "bin"), 0o755); err != nil {
		return nil, err
	}
	e.tomod = filepath.Join(e.scratch, "bin", "tomod")
	cmd := exec.Command("go", "build", "-o", e.tomod, "./cmd/tomod")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cmd/tomod: %v\n%s", err, out)
	}
	return e, nil
}

// gitHead is the checkout's commit, "unknown" outside a git work tree.
func gitHead(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// freePort asks the kernel for an unused loopback port. The listener
// is closed again, so the port is known free when the child binds it;
// a child that still loses the race exits at once and start fails.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// proc is one tomod child.
type proc struct {
	role string
	addr string // host:port
	cmd  *exec.Cmd
	log  string        // file receiving the child's stdout and stderr
	done chan struct{} // closed once cmd.Wait returned
}

// childEnv is the clean environment children run in: no inherited
// GOGC / GOMEMLIMIT / GODEBUG / GOMAXPROCS overrides, so the daemon is
// measured with the runtime defaults its users get.
func childEnv() []string {
	return []string{"PATH=" + os.Getenv("PATH"), "HOME=" + os.Getenv("HOME"), "LANG=C"}
}

// fleet is the set of daemons of one workload run plus their temp
// directory; stop tears all of it down and is safe to call twice.
type fleet struct {
	dir     string
	procs   []*proc // workers first, the public daemon last
	public  string  // base URL of the standalone daemon or coordinator
	stopped sync.Once
}

// liveFleets tracks running fleets so a signal or a panic on the main
// goroutine can still kill and reap every child.
var liveFleets struct {
	sync.Mutex
	m map[*fleet]struct{}
}

func stopAllFleets() {
	liveFleets.Lock()
	fleets := make([]*fleet, 0, len(liveFleets.m))
	for f := range liveFleets.m {
		fleets = append(fleets, f)
	}
	liveFleets.Unlock()
	for _, f := range fleets {
		f.stop()
	}
}

func (e *env) startProc(role, logPath string, args []string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	p := &proc{role: role, addr: "127.0.0.1:" + strconv.Itoa(port), log: logPath, done: make(chan struct{})}
	p.cmd = exec.Command(e.tomod, append([]string{"-listen", p.addr}, args...)...)
	p.cmd.Env = childEnv()
	p.cmd.Stdout, p.cmd.Stderr = logFile, logFile
	// Own process group, so a group kill reaches anything the child
	// might spawn; Pdeathsig reaps it even if the harness is SIGKILLed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting tomod (%s): %w", role, err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// kill asks the child to shut down, escalates to a group SIGKILL, and
// returns only once the process has been reaped.
func (p *proc) kill() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return
	case <-time.After(3 * time.Second):
	}
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
}

// startFleet writes the topology file and boots the workload's
// daemons: a standalone tomod, or two workers and a coordinator.
func (e *env) startFleet(ld *load) (*fleet, error) {
	if err := os.MkdirAll(filepath.Join(e.scratch, "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(e.scratch, "tmp"), "run-*")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	liveFleets.Lock()
	if liveFleets.m == nil {
		liveFleets.m = map[*fleet]struct{}{}
	}
	liveFleets.m[f] = struct{}{}
	liveFleets.Unlock()
	fail := func(err error) (*fleet, error) {
		f.stop()
		return nil, err
	}
	topo := filepath.Join(dir, "topology.json")
	if err := os.WriteFile(topo, ld.topoJSON, 0o644); err != nil {
		return fail(err)
	}
	s := ld.spec
	args := append([]string{"-topology", topo}, s.daemonArgs(filepath.Join(dir, "wal"))...)
	if s.cluster {
		var peers []string
		for i := 0; i < 2; i++ {
			w, err := e.startProc("worker", filepath.Join(dir, fmt.Sprintf("worker%d.log", i)), []string{"-role", "worker", "-topology", topo, "-log-level", "warn"})
			if err != nil {
				return fail(err)
			}
			f.procs = append(f.procs, w)
			peers = append(peers, "http://"+w.addr)
		}
		for _, w := range f.procs {
			if err := waitHTTP(w, "http://"+w.addr+"/c1/healthz"); err != nil {
				return fail(err)
			}
		}
		args = append(args, "-role", "coordinator", "-peers", strings.Join(peers, ","))
	}
	role := "standalone"
	if s.cluster {
		role = "coordinator"
	}
	d, err := e.startProc(role, filepath.Join(dir, role+".log"), args)
	if err != nil {
		return fail(err)
	}
	f.procs = append(f.procs, d)
	f.public = "http://" + d.addr
	if err := waitHTTP(d, f.public+"/v1/healthz"); err != nil {
		return fail(err)
	}
	return f, nil
}

// waitHTTP polls url until the child answers 200, failing fast when
// the child exits (a lost port race, a bad flag) instead.
func waitHTTP(p *proc, url string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("tomod (%s) exited during start-up:\n%s", p.role, p.output())
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		resp, err := http.DefaultClient.Do(req)
		cancel()
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("tomod (%s) not answering %s after 20s:\n%s", p.role, url, p.output())
}

// pids returns the daemon process ids, workers first.
func (f *fleet) pids() []int {
	out := make([]int, len(f.procs))
	for i, p := range f.procs {
		out[i] = p.cmd.Process.Pid
	}
	return out
}

// stop kills and reaps every child (the public daemon first, so a
// coordinator stops fanning out before its workers go) and removes
// the run's temp directory.
func (f *fleet) stop() {
	f.stopped.Do(func() {
		for i := len(f.procs) - 1; i >= 0; i-- {
			f.procs[i].kill()
		}
		os.RemoveAll(f.dir)
		liveFleets.Lock()
		delete(liveFleets.m, f)
		liveFleets.Unlock()
	})
}

func (p *proc) output() string {
	out, _ := os.ReadFile(p.log) // best effort: only decorates an error
	return string(out)
}

// logs returns the children's combined output (warnings and errors
// only, by -log-level), for failure reports; call it before stop.
func (f *fleet) logs() string {
	var b strings.Builder
	for _, p := range f.procs {
		if out := p.output(); out != "" {
			fmt.Fprintf(&b, "--- %s %s ---\n%s", p.role, p.addr, out)
		}
	}
	return b.String()
}
