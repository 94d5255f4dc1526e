// Package launch owns the SPMD launcher protocol shared by cmd/lci-launch
// and cmd/lci-serve: a parent process that pre-binds every rank's sockets
// and re-executes itself once per rank (Job), and the child-side bootstrap
// that picks the inherited endpoints back up (Config.Join).
//
// Pre-binding is the whole point: the parent binds each rank's UDP socket
// and (optionally) its telemetry TCP listener before any child exists, so
// there is no startup race, no port negotiation, and no scrape window where
// a rank is not yet serving.
//
// Exactly three things cross the fork. The argv is the parent's own, so
// every rank parses the same flags (Config) and needs nothing relayed. The
// handoff environment carries only what the parent created: LCI_RANK,
// LCI_SIZE, LCI_ADDRS (every rank's UDP address), LCI_FD, LCI_METRICS_FD
// and LCI_METRICS_ADDRS when metrics are bound, LCI_TRACE=1 when the
// command turns tracing on, and LCI_INJECT_STALL on the rank -inject-stall
// targets (internal/core reads it). The files sit at fixed descriptors:
//
//	fd 3  the rank's UDP fabric socket
//	fd 4  the rank's telemetry TCP listener (closed when metrics are unbound)
//	fd 5+ command-specific extras, in the order Start was given them
//	      (ExtraListener finds them)
package launch

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	lci "lcigraph/internal/core"
	"lcigraph/internal/netfabric"
	"lcigraph/internal/tracing"
)

// The handoff environment (see the package comment).
const (
	envRank         = "LCI_RANK"
	envSize         = "LCI_SIZE"
	envAddrs        = "LCI_ADDRS"
	envFD           = "LCI_FD"
	envMetricsFD    = "LCI_METRICS_FD"
	envMetricsAddrs = "LCI_METRICS_ADDRS"
)

// The inherited descriptor layout (see the package comment).
const (
	fdUDP     = 3
	fdMetrics = 4
	fdExtra   = 5
)

// InChild reports whether this process is a rank a Job started.
func InChild() bool { return os.Getenv(envRank) != "" }

// Job is one parent-side SPMD launch: N ranks over pre-bound loopback UDP,
// optional per-rank telemetry listeners, and tracing.
type Job struct {
	cfg *Config

	// Trace turns message-lifecycle tracing on in every child (LCI_TRACE=1).
	Trace bool

	// MetricsAddrs holds every rank's telemetry endpoint after BindMetrics.
	MetricsAddrs []string

	udpConns []*net.UDPConn
	udpAddrs []string
	mlns     []*net.TCPListener
	cmds     []*exec.Cmd
}

// NewJob pre-binds cfg.N loopback UDP sockets, one per rank, and creates
// the incident directory when one is set.
func NewJob(cfg *Config) (*Job, error) {
	if cfg.IncidentDir != "" {
		if err := os.MkdirAll(cfg.IncidentDir, 0o755); err != nil {
			return nil, err
		}
	}
	j := &Job{cfg: cfg, udpConns: make([]*net.UDPConn, cfg.N), udpAddrs: make([]string, cfg.N)}
	for i := range j.udpConns {
		// SO_REUSEPORT on the pre-bound socket is what lets each child's
		// extra reader shards join its inherited address.
		c, err := netfabric.ListenReusePort("udp", "127.0.0.1:0")
		if err != nil {
			j.closeBound()
			return nil, fmt.Errorf("bind rank %d: %w", i, err)
		}
		j.udpConns[i] = c.(*net.UDPConn)
		j.udpAddrs[i] = c.LocalAddr().String()
	}
	return j, nil
}

// BindMetrics pre-binds one telemetry TCP listener per rank: rank r listens
// on addr's port+r (port 0 picks ephemeral ports). MetricsAddrs is filled
// with the scrapeable addresses.
func (j *Job) BindMetrics(addr string) error {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("metrics addr %q: %w", addr, err)
	}
	base, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("metrics port %q: %w", portStr, err)
	}
	scrapeHost := host
	if scrapeHost == "" || scrapeHost == "0.0.0.0" || scrapeHost == "::" {
		scrapeHost = "127.0.0.1"
	}
	j.mlns = make([]*net.TCPListener, j.cfg.N)
	j.MetricsAddrs = make([]string, j.cfg.N)
	for i := range j.mlns {
		port := 0
		if base != 0 {
			port = base + i
		}
		ln, err := net.Listen("tcp", net.JoinHostPort(host, strconv.Itoa(port)))
		if err != nil {
			return fmt.Errorf("bind metrics rank %d: %w", i, err)
		}
		j.mlns[i] = ln.(*net.TCPListener)
		_, p, _ := net.SplitHostPort(ln.Addr().String())
		j.MetricsAddrs[i] = net.JoinHostPort(scrapeHost, p)
	}
	fmt.Fprintf(os.Stderr, "%s: metrics on %s (rank 0 merges at /cluster)\n",
		j.cfg.Name, strings.Join(j.MetricsAddrs, ","))
	return nil
}

// Start re-executes the current binary once per rank with args, handing
// each rank its pre-bound sockets and the handoff environment. extra maps a
// rank to the files it inherits from fd 5 onwards; Start closes them once
// the rank has its copy. A mid-loop failure kills the already-started
// ranks, which would otherwise block forever waiting for peers that will
// never exist.
func (j *Job) Start(args []string, extra map[int][]*os.File) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// Parse validated the spec; an unparsed Config injects nothing.
	stallRank, stallSpec, _ := j.cfg.stall()
	if stallRank >= 0 {
		fmt.Fprintf(os.Stderr, "%s: injecting progress stall on rank %d (%s)\n", j.cfg.Name, stallRank, stallSpec)
	}
	j.cmds = make([]*exec.Cmd, j.cfg.N)
	env := append(os.Environ(),
		envSize+"="+strconv.Itoa(j.cfg.N),
		envAddrs+"="+strings.Join(j.udpAddrs, ","),
		envFD+"="+strconv.Itoa(fdUDP),
	)
	if j.Trace {
		// The last entry wins over any inherited LCI_TRACE value.
		env = append(env, tracing.EnvEnable+"=1")
	}
	if j.mlns != nil {
		env = append(env,
			envMetricsFD+"="+strconv.Itoa(fdMetrics),
			envMetricsAddrs+"="+strings.Join(j.MetricsAddrs, ","),
		)
	}
	var files []*os.File
	fail := func(err error) error {
		for _, f := range files {
			f.Close()
		}
		for _, efs := range extra {
			for _, f := range efs {
				f.Close()
			}
		}
		j.Kill()
		j.closeBound()
		return err
	}
	for i := range j.cmds {
		f, err := j.udpConns[i].File()
		if err != nil {
			return fail(fmt.Errorf("dup socket rank %d: %w", i, err))
		}
		// A nil entry leaves its descriptor closed in the child, which keeps
		// fd 4 reserved for metrics and the extras at fd 5 either way.
		files = []*os.File{f, nil}
		if j.mlns != nil {
			if files[1], err = j.mlns[i].File(); err != nil {
				return fail(fmt.Errorf("dup metrics listener rank %d: %w", i, err))
			}
		}
		files = append(files, extra[i]...)
		if files[len(files)-1] == nil {
			files = files[:1]
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		cmd.ExtraFiles = files
		cmd.Env = append(env[:len(env):len(env)], envRank+"="+strconv.Itoa(i))
		if i == stallRank {
			cmd.Env = append(cmd.Env, lci.EnvInjectStall+"="+stallSpec)
		}
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("start rank %d: %w", i, err))
		}
		for _, fl := range files {
			if fl != nil {
				fl.Close()
			}
		}
		files = nil
		j.udpConns[i].Close()
		if j.mlns != nil {
			j.mlns[i].Close()
		}
		j.cmds[i] = cmd
	}
	return nil
}

// Wait blocks until every rank exits and returns the worst exit code.
func (j *Job) Wait() int {
	code := 0
	for i, cmd := range j.cmds {
		if cmd == nil {
			continue
		}
		if err := cmd.Wait(); err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				if c := ee.ExitCode(); c > code {
					code = c
				}
			} else {
				fmt.Fprintf(os.Stderr, "launch: wait rank %d: %v\n", i, err)
				code = 2
			}
		}
	}
	return code
}

// Signal delivers sig to one rank (e.g. SIGTERM to rank 0 to start a
// serving job's graceful drain).
func (j *Job) Signal(rank int, sig os.Signal) error {
	if rank < 0 || rank >= len(j.cmds) || j.cmds[rank] == nil {
		return fmt.Errorf("launch: no started rank %d", rank)
	}
	return j.cmds[rank].Process.Signal(sig)
}

// Kill hard-stops every started rank.
func (j *Job) Kill() {
	for _, cmd := range j.cmds {
		if cmd != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
}

func (j *Job) closeBound() {
	for _, c := range j.udpConns {
		if c != nil {
			c.Close()
		}
	}
	for _, l := range j.mlns {
		if l != nil {
			l.Close()
		}
	}
}

// WriteFileAtomic writes data to path via a temp file + rename so a reader
// (or a crashed run) never observes a partial document, creating parent
// directories as needed.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(f.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
