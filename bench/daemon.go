package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mmogdc/internal/emulator"
	"mmogdc/internal/obs"
)

// daemonSpec is one mmogd workload: the daemon's games, the emulated
// worlds feeding them, and the open-loop sample rate. mmogd runs with the
// last-value predictor, so the admission path, not the forecast, carries
// the cost.
type daemonSpec struct {
	games int
	// grid and entities size each game's emulated world: grid*grid
	// zones per sample.
	grid, entities int
	// rate is the total samples per second across games.
	rate float64
}

var steadyDaemon = daemonSpec{games: 1, grid: 12, entities: 1800, rate: 2000}

// Generator health limits. A run whose generator falls short of them is
// flagged in its output but stays correct: the shortfall comes from host
// stalls that hold up the generator and mmogd alike, and the latencies,
// timed from due times, already carry them.
const (
	minRateShare = 0.98
	maxLateP99MS = 5.0
)

// stream is a workload's pre-encoded POST /v1/observe bodies; sample k
// belongs to game k % len(games).
type stream struct {
	games  []string
	zones  int
	bodies [][]byte
}

// makeStream steps one emulator world per game and encodes n samples.
func makeStream(spec daemonSpec, seed uint64, n int) *stream {
	s := &stream{zones: spec.grid * spec.grid, bodies: make([][]byte, n)}
	worlds := make([]*emulator.World, spec.games)
	for g := range worlds {
		s.games = append(s.games, fmt.Sprintf("g%d", g))
		worlds[g] = emulator.NewWorld(emulator.Config{
			Name: s.games[g], Seed: seed*31 + uint64(g) + 1,
			GridW: spec.grid, GridH: spec.grid, Entities: spec.entities,
			Steps: n/spec.games + 1,
		})
	}
	for k := range s.bodies {
		g := k % spec.games
		worlds[g].Step()
		b := append([]byte(`{"game":"`), s.games[g]...)
		b = append(b, `","values":[`...)
		for i, c := range worlds[g].ZoneCounts() {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
		s.bodies[k] = append(b, "]}"...)
	}
	return s
}

// game returns sample k's game index.
func (s *stream) game(k int) int { return k % len(s.games) }

// slice returns samples [lo, hi) as a stream of their own; lo is a
// multiple of the game count, so every sample keeps its game.
func (s *stream) slice(lo, hi int) *stream {
	return &stream{games: s.games, zones: s.zones, bodies: s.bodies[lo:hi]}
}

// buildMmogd builds cmd/mmogd from the tree under test into the work
// directory (a no-op when the binary is current).
func buildMmogd(r *run) (string, error) {
	bin := filepath.Join(r.work, "mmogd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mmogd")
	cmd.Dir = r.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mmogd: %w", err)
	}
	return bin, nil
}

// mmogd is one running daemon process.
type mmogd struct {
	cmd  *exec.Cmd
	addr string
	// setupWall is the time from exec to the "serving http on" line, and
	// setupCPU the CPU time mmogd had used when that line arrived.
	setupWall, setupCPU time.Duration

	mu   sync.Mutex
	log  []string
	done chan struct{} // closed once the process has been waited for
	err  error         // the Wait result, valid after done
}

// startMmogd execs the daemon and waits for its "serving http on" line.
func startMmogd(bin string, args ...string) (*mmogd, error) {
	m := &mmogd{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	// The daemon dies with the benchmark, even when the benchmark is
	// killed before it can stop it.
	m.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := m.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := m.cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			m.mu.Lock()
			m.log = append(m.log, line)
			m.mu.Unlock()
			if addr, ok := strings.CutPrefix(line, "daemon: serving http on "); ok {
				ready <- addr
			}
		}
		m.err = m.cmd.Wait()
		close(m.done)
	}()
	select {
	case m.addr = <-ready:
		m.setupWall = time.Since(t0)
		if m.setupCPU, err = procCPU(m.cmd.Process.Pid); err != nil {
			m.kill()
			return nil, err
		}
		if _, err := m.get("/readyz"); err != nil {
			m.kill()
			return nil, fmt.Errorf("mmogd not ready: %v", err)
		}
		return m, nil
	case <-m.done:
		return nil, fmt.Errorf("mmogd exited before serving: %v\n%s", m.err, m.logText())
	case <-time.After(150 * time.Second):
		m.kill()
		return nil, fmt.Errorf("mmogd did not serve within 150s\n%s", m.logText())
	}
}

func (m *mmogd) logText() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return strings.Join(m.log, "\n")
}

// stop drains the daemon with SIGTERM and returns its exit code (-1 when
// it had to be killed).
func (m *mmogd) stop() int {
	if err := m.cmd.Process.Signal(syscall.SIGTERM); err == nil {
		select {
		case <-m.done:
			var ee *exec.ExitError
			if errors.As(m.err, &ee) {
				return ee.ExitCode()
			}
			if m.err != nil {
				return -1
			}
			return 0
		case <-time.After(60 * time.Second):
		}
	}
	m.kill()
	return -1
}

// kill ends the process if it still runs and waits for it.
func (m *mmogd) kill() {
	select {
	case <-m.done:
	default:
		m.cmd.Process.Kill()
		<-m.done
	}
}

// control is the plain HTTP client for everything but the load.
var control = &http.Client{Timeout: 30 * time.Second}

func (m *mmogd) get(path string) ([]byte, error) {
	resp, err := control.Get("http://" + m.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// scrape reads /metrics into series -> value.
func (m *mmogd) scrape() (map[string]float64, error) {
	text, err := m.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// sumSeries adds every series of one metric name across its labels.
func sumSeries(m map[string]float64, name string) float64 {
	total := 0.0
	for series, v := range m {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// memStats reads the runtime.MemStats block of the daemon's heap
// profile ("# Mallocs = 123" lines). With gc, the daemon collects
// garbage first, so HeapAlloc is its live heap.
func (m *mmogd) memStats(gc bool) (map[string]float64, error) {
	path := "/debug/pprof/heap?debug=1"
	if gc {
		path += "&gc=1"
	}
	text, err := m.get(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		name, value, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	for _, name := range []string{"Mallocs", "TotalAlloc", "HeapAlloc"} {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("heap profile carries no MemStats %s", name)
		}
	}
	return out, nil
}

// forecastTicks returns one game's observed tick count.
func (m *mmogd) forecastTicks(game string) (int, error) {
	blob, err := m.get("/v1/forecast?game=" + game)
	if err != nil {
		return 0, err
	}
	var f struct {
		Ticks int `json:"ticks"`
	}
	err = json.Unmarshal(blob, &f)
	return f.Ticks, err
}

// load is the outcome of one open-loop run.
type load struct {
	// lat is each sample's latency from its due time to the response,
	// in ms; the whole load window when it was refused or failed.
	lat []float64
	// late is how far behind its due time each sample was sent, in ms.
	late []float64
	// queued is the ingest queue depth each 202 reported.
	queued []float64
	// status is each sample's HTTP status, 0 for a transport error.
	status []int
	// accepted counts 202s per game; refused counts other statuses and
	// failed transport errors.
	accepted        []int
	refused, failed int
	// span is the first due time to the last send, plus one interval.
	span time.Duration
}

func (l *load) acceptedTotal() int {
	n := 0
	for _, a := range l.accepted {
		n += a
	}
	return n
}

// add appends a later segment's outcome to l.
func (l *load) add(seg *load) {
	l.lat = append(l.lat, seg.lat...)
	l.late = append(l.late, seg.late...)
	l.queued = append(l.queued, seg.queued...)
	l.status = append(l.status, seg.status...)
	for g, a := range seg.accepted {
		l.accepted[g] += a
	}
	l.refused += seg.refused
	l.failed += seg.failed
	l.span += seg.span
}

// conn is one keep-alive HTTP/1.1 connection speaking just enough of
// the protocol to POST a sample, so the generator adds no goroutines of
// its own beyond one per connection.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// post sends one observation and returns the status and body.
func (c *conn) post(body []byte, traceparent string) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = nc, bufio.NewReader(nc)
	}
	c.buf = append(c.buf[:0], "POST /v1/observe HTTP/1.1\r\nHost: mmogd\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.buf = strconv.AppendInt(c.buf, int64(len(body)), 10)
	if traceparent != "" {
		c.buf = append(c.buf, "\r\ntraceparent: "...)
		c.buf = append(c.buf, traceparent...)
	}
	c.buf = append(c.buf, "\r\n\r\n"...)
	c.buf = append(c.buf, body...)
	if _, err := c.c.Write(c.buf); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, b, err
}

// connections is the generator's parallelism: two keep-alive
// connections, never more than there are CPUs.
func connections() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// sendLoad starts posting every sample of s to addr at its due time:
// sample k is due k/rate seconds after start, whatever happened to
// earlier samples (open loop). Connection j sends samples j, j+C, j+2C,
// ... in order. With a tracer, each request is a client span whose ID
// travels in the traceparent header. The returned wait blocks until
// every sample has been answered.
func sendLoad(addr string, s *stream, rate float64, start time.Time, tr *obs.Tracer, traceID uint64) (wait func() *load) {
	n := len(s.bodies)
	l := &load{
		lat: make([]float64, n), late: make([]float64, n), status: make([]int, n),
		accepted: make([]int, len(s.games)),
	}
	queued := make([]float64, n)
	sentAt := make([]time.Duration, n)
	interval := float64(time.Second) / rate
	conns := connections()
	var wg sync.WaitGroup
	for j := 0; j < conns; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			c := &conn{addr: addr}
			defer c.close()
			for k := j; k < n; k += conns {
				due := start.Add(time.Duration(float64(k) * interval))
				sleep(time.Until(due))
				sent := time.Now()
				sentAt[k] = sent.Sub(start)
				l.late[k] = ms(sent.Sub(due))
				var sp *obs.Span
				var tp string
				if tr != nil {
					sp = tr.BeginAt("client.request", "client", 0, sent)
					tp = obs.Traceparent(traceID, sp.ID())
				}
				code, body, err := c.post(s.bodies[k], tp)
				done := time.Now()
				sp.SetValue(float64(code))
				sp.EndAt(done)
				l.lat[k] = ms(done.Sub(due))
				if err != nil {
					continue
				}
				l.status[k] = code
				var ack struct {
					Queued float64 `json:"queued"`
				}
				if code == http.StatusAccepted && json.Unmarshal(body, &ack) == nil {
					queued[k] = ack.Queued
				}
			}
		}(j)
	}
	return func() *load {
		wg.Wait()
		for _, at := range sentAt {
			if at > l.span {
				l.span = at
			}
		}
		l.span += time.Duration(interval)
		for k := 0; k < n; k++ {
			switch l.status[k] {
			case http.StatusAccepted:
				l.accepted[s.game(k)]++
				l.queued = append(l.queued, queued[k])
				continue
			case 0:
				l.failed++
			default:
				l.refused++
			}
			// A sample that was never served misses every latency limit;
			// it counts as the whole load window.
			l.lat[k] = ms(l.span)
		}
		return l
	}
}

// sleep blocks for d on the kernel's high-resolution timer. time.Sleep
// rounds sub-millisecond waits up to the scheduler's millisecond poll,
// which made the generator send every sample about 0.5 ms late.
func sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// A daemon load is sent in segments of segmentSeconds of due times.
// Each segment ends once mmogd has observed every sample it accepted, so
// the CPU time mmogd used over the segment is the cost of exactly those
// samples; the reference kernel is timed between segments, while mmogd
// is idle. The host's other tenants slow this process and mmogd in
// bursts from a fraction of a second to minutes, and a segment is short
// enough for the kernel around it to see the same burst.
const segmentSeconds = 0.5

// maxTracedSamples bounds a traced load: mmogd's tracer keeps the first
// obs.DefaultTracerCapacity spans, and a sample makes at most five
// (daemon.request, daemon.queue_wait, daemon.observe, operator.observe,
// operator.acquire). Beyond it the span chains the traced run checks
// would be cut off.
const maxTracedSamples = obs.DefaultTracerCapacity / 6

// phase is one load run against one daemon, with mmogd's counters read
// before the first segment and once the daemon caught up with the last.
type phase struct {
	load           *load
	first, last    mark
	mallocs, bytes float64
	liveMB         float64 // live heap after a forced GC once the daemon caught up
	hwmMB          float64 // peak RSS, start-up included
	// cpuPerTick is mmogd's CPU time per accepted sample in each segment
	// (µs), as measured and scaled by the reference kernel timed around
	// the segment.
	cpuPerTick, scaledPerTick []float64
}

// mark is mmogd's CPU time and /metrics at one instant.
type mark struct {
	cpu     time.Duration
	metrics map[string]float64
}

func (m *mmogd) mark() (mark, error) {
	cpu, err := procCPU(m.cmd.Process.Pid)
	if err != nil {
		return mark{}, err
	}
	metrics, err := m.scrape()
	return mark{cpu: cpu, metrics: metrics}, err
}

// delta returns how much a /metrics series (summed over labels) grew
// over the whole phase.
func (p *phase) delta(name string) float64 {
	return sumSeries(p.last.metrics, name) - sumSeries(p.first.metrics, name)
}

// measure runs the load against m, segment by segment, and reads mmogd's
// counters around it.
func measure(r *run, m *mmogd, s *stream, rate float64, tr *obs.Tracer) (*phase, error) {
	p := &phase{load: &load{accepted: make([]int, len(s.games))}}
	ms0, err := m.memStats(false)
	if err != nil {
		return nil, err
	}
	if p.first, err = m.mark(); err != nil {
		return nil, err
	}
	games := len(s.games)
	per := max(games, int(rate*segmentSeconds)/games*games)
	caughtUp := true
	r.cal.begin()
	for lo := 0; lo < len(s.bodies); lo += per {
		cpu0, err := procCPU(m.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		seg := sendLoad(m.addr, s.slice(lo, min(lo+per, len(s.bodies))), rate,
			time.Now().Add(5*time.Millisecond), tr, r.seed)()
		p.load.add(seg)
		ok, err := waitCaughtUp(m, s, p.load.accepted)
		if err != nil {
			return nil, err
		}
		caughtUp = caughtUp && ok
		cpu1, err := procCPU(m.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		if acc := seg.acceptedTotal(); acc > 0 {
			cpu := float64((cpu1 - cpu0).Nanoseconds()) / 1e3 / float64(acc)
			p.cpuPerTick = append(p.cpuPerTick, cpu)
			p.scaledPerTick = append(p.scaledPerTick, r.cal.scale(cpu))
		}
	}
	if p.last, err = m.mark(); err != nil {
		return nil, err
	}
	r.check("forecast ticks equal accepted samples", caughtUp,
		fmt.Sprintf("%d samples over %d game(s), checked after each of %d segments",
			p.load.acceptedTotal(), games, (len(s.bodies)+per-1)/per))
	ms1, err := m.memStats(true)
	if err != nil {
		return nil, err
	}
	p.mallocs = ms1["Mallocs"] - ms0["Mallocs"]
	p.bytes = ms1["TotalAlloc"] - ms0["TotalAlloc"]
	p.liveMB = ms1["HeapAlloc"] / (1 << 20)
	if p.hwmMB, err = memMB(m.cmd.Process.Pid, "VmHWM"); err != nil {
		return nil, err
	}
	r.checkLoad(s, p.load, rate)
	return p, nil
}

// waitCaughtUp polls each game's forecast until its tick count equals
// the samples mmogd accepted for it so far, and reports whether it got
// there.
func waitCaughtUp(m *mmogd, s *stream, accepted []int) (bool, error) {
	deadline := time.Now().Add(20 * time.Second)
	for g, name := range s.games {
		for {
			got, err := m.forecastTicks(name)
			if err != nil {
				return false, err
			}
			if got == accepted[g] {
				break
			}
			if got > accepted[g] || time.Now().After(deadline) {
				fmt.Printf("  game %s: %d ticks, %d accepted\n", name, got, accepted[g])
				return false, nil
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return true, nil
}

// checkLoad prints the generator's health and checks the accounting.
func (r *run) checkLoad(s *stream, l *load, rate float64) {
	n := len(s.bodies)
	acc := l.acceptedTotal()
	achieved := float64(n) / l.span.Seconds()
	lateP99 := quantile(l.late, 0.99)
	fmt.Printf("  load: %d samples at %.0f/s over %d connection(s): %d accepted, %d refused, %d failed\n",
		n, rate, connections(), acc, l.refused, l.failed)
	fmt.Printf("  gen.late_p50_ms %.4f  gen.late_p99_ms %.4f  gen.rate %.1f/s (%.2f%% of nominal)\n",
		quantile(l.late, 0.5), lateP99, achieved, 100*achieved/rate)
	r.check("sent = accepted + refused + failed", n == acc+l.refused+l.failed,
		fmt.Sprintf("%d = %d + %d + %d", n, acc, l.refused, l.failed))
	if achieved < minRateShare*rate {
		fmt.Printf("  WARN generator sent at %.2f%% of the nominal rate (< %.0f%%): the host stalled this run\n",
			100*achieved/rate, 100*minRateShare)
	}
	if lateP99 > maxLateP99MS {
		fmt.Printf("  WARN generator late p99 %.3f ms exceeds %.0f ms: the host stalled this run\n", lateP99, maxLateP99MS)
	}
}

// ingestQueue is the per-game queue depth mmogd runs with: two seconds
// of samples at the workload's rate. With mmogd's default of 64, a
// stall of the shared host longer than 32 ms made it shed samples with
// 429s; the benchmark measures the cost of serving them, and shedding
// has a functional test of its own.
const ingestQueue = 4096

// mmogdArgs is the daemon command line for a stream.
func mmogdArgs(s *stream, extra ...string) []string {
	return append([]string{"-addr", "127.0.0.1:0", "-games", strings.Join(s.games, ","),
		"-predictor", "lastvalue", "-queue", strconv.Itoa(ingestQueue)}, extra...)
}

// runDaemon measures one daemon workload: r.scale.setups daemon starts
// or more (setup_s is the median of their CPU time; the last one serves
// the load), then an open-loop load of r.measureFor().
func runDaemon(r *run, spec daemonSpec) error {
	if r.scale.daemonRate > 0 {
		spec.rate = r.scale.daemonRate
	}
	bin, err := buildMmogd(r)
	if err != nil {
		return err
	}
	n := int(spec.rate * r.measureFor().Seconds())
	if r.trace && n > maxTracedSamples {
		n = maxTracedSamples
	}
	s := makeStream(spec, r.seed, n)
	fmt.Printf("  inputs: %d samples x %d zones, %d game(s)\n", len(s.bodies), s.zones, len(s.games))
	if r.trace {
		return traceDaemon(r, spec, bin, s)
	}

	var (
		setups, scaled, walls []float64
		spent                 time.Duration
		m                     *mmogd
	)
	r.cal.begin()
	for {
		if m, err = startMmogd(bin, mmogdArgs(s)...); err != nil {
			return err
		}
		setups = append(setups, m.setupCPU.Seconds())
		walls = append(walls, m.setupWall.Seconds())
		spent += m.setupWall
		if !r.moreSetups(len(setups), spent) {
			scaled = append(scaled, r.cal.scale(m.setupCPU.Seconds()))
			break
		}
		// Only the last start serves the load; the others are killed
		// outright. (mmogd installs its signal handler after printing the
		// serving line, so a SIGTERM this early can kill it anyway.)
		m.kill()
		scaled = append(scaled, r.cal.scale(m.setupCPU.Seconds()))
	}
	defer m.kill()
	p, err := measure(r, m, s, spec.rate, nil)
	if err != nil {
		return err
	}
	code := m.stop()
	r.check("mmogd exits 0 on SIGTERM drain", code == 0, fmt.Sprintf("exit %d", code))
	fmt.Printf("  %s\n", &r.cal)

	l := p.load
	acc := float64(l.acceptedTotal())
	r.res.Attempted = len(s.bodies)
	r.res.Failed = l.refused + l.failed
	r.setCPU("setup_s", median(scaled), setups, "s", fmt.Sprintf("mmogd CPU time from exec to serving, median of n=%d scaled (wall %s)",
		len(scaled), spread(walls)))
	r.setCPU("cpu_us_per_tick", median(p.scaledPerTick), p.cpuPerTick, "us",
		fmt.Sprintf("mmogd CPU time per sample of each segment, median of n=%d scaled", len(p.scaledPerTick)))
	r.set("allocs_per_tick", perCall(p.mallocs, acc), "allocs", "mmogd per sample")
	r.set("bytes_per_tick", perCall(p.bytes, acc), "B", "mmogd per sample")
	r.set("heap_live_mb", p.liveMB, "MB", fmt.Sprintf("mmogd after the load; its peak RSS %.1f MB", p.hwmMB))
	info("latency_p50_ms", quantile(l.lat, 0.5), "ms", "from due time")
	info("latency_p90_ms", quantile(l.lat, 0.9), "ms", "from due time")
	info("latency_p99_ms", quantile(l.lat, 0.99), "ms", fmt.Sprintf("from due time; p99.9 %.4g", quantile(l.lat, 0.999)))
	observe := p.delta("mmogdc_operator_observe_duration_seconds_sum")
	info("zone_ticks_per_s", perCall(acc*float64(s.zones), observe), "zone-ticks/s", "of operator observe time")
	return nil
}
