package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"topk/internal/telemetry"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// serverProc is one topkserve child process on loopback.
type serverProc struct {
	cmd       *exec.Cmd
	base      string // http://127.0.0.1:port
	debugBase string // pprof listener
	logPath   string
	exited    chan struct{}
	waitErr   error
	hc        *http.Client
}

// children tracks the running servers so an interrupted benchmark can stop
// them before it exits.
var children = &procSet{m: make(map[*serverProc]bool)}

type procSet struct {
	mu sync.Mutex
	m  map[*serverProc]bool
}

func (p *procSet) add(s *serverProc) {
	p.mu.Lock()
	p.m[s] = true
	p.mu.Unlock()
}

func (p *procSet) remove(s *serverProc) {
	p.mu.Lock()
	delete(p.m, s)
	p.mu.Unlock()
}

// killAll SIGKILLs every running server and waits for each to exit.
func (p *procSet) killAll() {
	p.mu.Lock()
	procs := make([]*serverProc, 0, len(p.m))
	for s := range p.m {
		procs = append(procs, s)
	}
	p.mu.Unlock()
	for _, s := range procs {
		s.kill()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin with args plus loopback listen addresses and
// returns once /readyz answers 200, with the time from process start to
// that answer. A port taken between choosing and binding it is retried
// with fresh ports.
func startServer(bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	for attempt := 0; ; attempt++ {
		s, took, err := startServerOnce(bin, args, logPath)
		if errors.Is(err, errPortTaken) && attempt < 5 {
			continue
		}
		return s, took, err
	}
}

var errPortTaken = errors.New("listen port taken")

func startServerOnce(bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	dport, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	full := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-debug-addr", fmt.Sprintf("127.0.0.1:%d", dport)}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &serverProc{
		cmd:       cmd,
		base:      fmt.Sprintf("http://127.0.0.1:%d", port),
		debugBase: fmt.Sprintf("http://127.0.0.1:%d", dport),
		logPath:   logPath,
		exited:    make(chan struct{}),
		hc:        &http.Client{Timeout: 60 * time.Second},
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	children.add(s)
	go func() {
		s.waitErr = cmd.Wait()
		children.remove(s)
		close(s.exited)
	}()
	deadline := start.Add(120 * time.Second)
	for {
		resp, err := s.hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			if tail := s.logTail(); strings.Contains(tail, "address already in use") {
				return nil, 0, errPortTaken
			}
			return nil, 0, fmt.Errorf("topkserve exited before ready (%v); log tail:\n%s", s.waitErr, s.logTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("topkserve not ready after 120s; log tail:\n%s", s.logTail())
		}
	}
}

// stop shuts the server down gracefully (SIGTERM drains and closes the WAL)
// and waits for it to exit.
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("topkserve ignored SIGTERM for 30s")
	}
	if s.waitErr != nil {
		return fmt.Errorf("topkserve exit: %v; log tail:\n%s", s.waitErr, s.logTail())
	}
	return nil
}

// kill sends SIGKILL and waits: the crash of the durability check.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine: we only need it gone
	<-s.exited
}

func (s *serverProc) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpuSeconds reads the process's user+system CPU time from /proc.
func (s *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line, in seconds. The command name may hold spaces, so
// fields are counted after its closing parenthesis.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat cpu fields %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTicks, nil
}

// heapAllocMiB forces GCs in the server through the pprof heap endpoint and
// returns the live heap (HeapAlloc) it reports after the second: two
// collections in a row also empty the sync.Pool victim caches, whose size
// depends on scheduling, not on what the server holds.
func (s *serverProc) heapAllocMiB() (float64, error) {
	if _, err := s.heapAllocOnce(); err != nil {
		return 0, err
	}
	return s.heapAllocOnce()
}

func (s *serverProc) heapAllocOnce() (float64, error) {
	resp, err := s.hc.Get(s.debugBase + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(n) / (1 << 20), nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no HeapAlloc line in the heap profile")
}

// statsJSON is the part of GET /stats the benchmark reads.
type statsJSON struct {
	N             int    `json:"n"`
	Queries       uint64 `json:"queries"`
	KNNQueries    uint64 `json:"knnQueries"`
	BatchShared   uint64 `json:"batchShared"`
	BatchPerQuery uint64 `json:"batchPerQuery"`
	Mutations     uint64 `json:"mutations"`
	Delta         int    `json:"delta"`
	Rebuilds      uint64 `json:"rebuilds"`
	DistanceCalls uint64 `json:"distanceCalls"`
	Fanout        struct {
		Count     uint64  `json:"count"`
		P50Micros float64 `json:"p50Micros"`
	} `json:"fanout"`
	Merge struct {
		Count     uint64  `json:"count"`
		P50Micros float64 `json:"p50Micros"`
	} `json:"merge"`
	Planner []struct {
		Backend      string `json:"backend"`
		Plans        uint64 `json:"plans"`
		Observations uint64 `json:"observations"`
		Mispredicts  uint64 `json:"mispredicts"`
	} `json:"planner"`
	WAL *struct {
		Appended      uint64 `json:"appended"`
		AppendedBytes int64  `json:"appendedBytes"`
		Syncs         uint64 `json:"syncs"`
		Checkpoints   uint64 `json:"checkpoints"`
	} `json:"wal"`
	Admission *struct {
		Admitted      uint64                      `json:"admitted"`
		ShedQueueFull uint64                      `json:"shedQueueFull"`
		ShedTimeout   uint64                      `json:"shedTimeout"`
		ShedCanceled  uint64                      `json:"shedCanceled"`
		Wait          telemetry.HistogramSnapshot `json:"wait"`
	} `json:"admission"`
	Cache *struct {
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		Invalidations uint64 `json:"invalidations"`
	} `json:"cache"`
}

func (s *serverProc) stats() (*statsJSON, error) {
	var st statsJSON
	if err := s.getJSON("/stats", &st); err != nil {
		return nil, err
	}
	if st.WAL == nil || st.Admission == nil || st.Cache == nil {
		return nil, fmt.Errorf("/stats lacks the wal, admission or cache section")
	}
	return &st, nil
}

func (s *serverProc) getJSON(path string, v any) error {
	resp, err := s.hc.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}
