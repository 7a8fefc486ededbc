package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// target is a booted configuration the load generator drives over
// loopback HTTP: real tomod children, or (traced runs) the same
// configuration hosted in-process.
type target struct {
	public  string   // base URL of the v1 API
	workers []string // base URLs of cluster workers (their /metrics)
	pids    []int    // daemon process ids, workers first; empty in-process
}

// pend is a sent batch whose publication no query has shown yet.
type pend struct {
	seq uint64
	due time.Time
}

// window holds the raw observations of one measured window.
type window struct {
	freshMs  []float64 // ingest-due → first query showing it published
	ingestMs []float64 // POST round trips
	queryMs  []float64 // GET /v1/links/{id} round trips
	subsetMs []float64 // GET /v1/subsets round trips
	lateMs   []float64 // how late each POST left, against its due time
	answers  []answer  // every link answer served, in order
	rssMiB   []float64 // VmRSS summed over daemons, every 100 ms
	peakMiB  float64   // VmHWM summed over daemons at the end

	batches    int // POSTs attempted
	accepted   int // intervals acknowledged
	probes     int // link and subset GETs attempted
	failed     int // non-2xx, transport errors, wrong acks
	unresolved int // batches no query saw published within 5 s of the last send
	firstErr   string

	cpuUserS, cpuSysS float64   // Δ over the window, all daemons
	cpuByProc         []float64 // Δ(user+sys) per daemon, in target.pids order
	elapsedS          float64

	before, after scrape // the daemons' own counters bracketing the window
}

// scrape is one reading of the daemons' instrumentation.
type scrape struct {
	public  samples   // the standalone daemon's or coordinator's /metrics
	workers []samples // each cluster worker's /metrics
	status  *server.StatusResponse
}

// scrapeAll reads every daemon of the target over the reader's client
// (outside the measured window, so the extra connections do not count).
func scrapeAll(tg target, rd *httpc) (sc scrape, err error) {
	if sc.public, err = rd.metrics(); err != nil {
		return sc, err
	}
	for _, base := range tg.workers {
		ws, err := (&httpc{base: base, hc: rd.hc}).metrics()
		if err != nil {
			return sc, err
		}
		sc.workers = append(sc.workers, ws)
	}
	sc.status, err = rd.status()
	return sc, err
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if w.firstErr == "" {
		w.firstErr = fmt.Sprintf(format, args...)
	}
}

// post sends one pre-encoded observations body and returns the
// acknowledgement.
func post(c *httpc, body []byte) (server.ObservationsResponse, error) {
	var ack server.ObservationsResponse
	resp, err := c.hc.Post(c.base+"/v1/observations", "application/json", bytes.NewReader(body))
	if err != nil {
		return ack, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return ack, err
	}
	return ack, decodeEnvelope("POST /v1/observations", resp.StatusCode, raw, &ack)
}

// askLink queries one link; the zero answer (snapshot sequence 0)
// while no snapshot is published yet.
func askLink(c *httpc, link int) (answer, error) {
	code, body, err := c.get("/v1/links/" + strconv.Itoa(link))
	if err != nil || code == http.StatusServiceUnavailable {
		return answer{}, err
	}
	var lr server.LinkResponse
	if err := decodeEnvelope("GET /v1/links", code, body, &lr); err != nil {
		return answer{}, err
	}
	return answer{link: link, seqHigh: lr.SeqHigh, prob: lr.CongestProb}, nil
}

// waitReady polls /v1/readyz: for a coordinator that also means every
// worker has been assigned its shards.
func waitReady(c *httpc) error {
	deadline := time.Now().Add(20 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		code, body, err := c.get("/v1/readyz")
		if err == nil && code == http.StatusOK {
			return nil
		}
		last = fmt.Sprintf("HTTP %d %s %v", code, bytes.TrimSpace(body), err)
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("daemon not ready after 20s: %s", last)
}

// prefill fills one window in lock-step: POST, wait until a query
// answers from a snapshot covering the batch, next. No stride
// checkpoint is ever dropped and the plan history entering the
// measured window is the same on every run.
func prefill(ld *load, wr, rd *httpc) error {
	for i, body := range ld.prefill {
		ack, err := post(wr, body)
		if err != nil {
			return fmt.Errorf("prefill batch %d: %w", i, err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			got, err := askLink(rd, 0)
			if err != nil {
				return fmt.Errorf("prefill batch %d: %w", i, err)
			}
			if got.seqHigh >= ack.Seq {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("prefill batch %d: seq %d not published after 30s (at %d)", i, ack.Seq, got.seqHigh)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// sleepFor blocks the calling goroutine's thread in nanosleep(2). Go's
// own timers wake through epoll_wait, whose timeout has millisecond
// resolution: time.Sleep ran a median 0.6 ms late here, nanosleep
// 0.06 ms, and lateness goes straight into every freshness sample.
func sleepFor(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem // a signal (the runtime preempts by signal) cut the sleep short
	}
}

// sampleProcs reads every daemon's CPU and memory.
func sampleProcs(pids []int) ([]procSample, error) {
	out := make([]procSample, len(pids))
	for i, pid := range pids {
		ps, err := readProc(pid)
		if err != nil {
			return nil, err
		}
		out[i] = ps
	}
	return out, nil
}

// measure drives the open-loop measured window against a prefilled
// target from two connections — one writer, one reader — and returns
// the raw observations. The writer sleeps until each batch is due and
// POSTs it; the reader probes links round-robin while any sent batch
// is unpublished and idles along as background query load otherwise.
func measure(ld *load, tg target, wr, rd *httpc) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = scrapeAll(tg, rd); err != nil {
		return nil, fmt.Errorf("scraping before the window: %w", err)
	}

	var (
		mu      sync.Mutex
		pending []pend
		sending = true
		lastDue time.Time
	)
	kick := make(chan struct{}, 1) // wakes the idle reader when a batch goes out
	stopSampler := make(chan struct{})
	var wg sync.WaitGroup

	cpu0, err := sampleProcs(tg.pids)
	if err != nil {
		return nil, err
	}
	start := time.Now().Add(10 * time.Millisecond)

	wg.Add(1)
	go func() { // process sampler: files, not connections
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				if ps, err := sampleProcs(tg.pids); err == nil {
					total := 0.0
					for _, p := range ps {
						total += p.rssMiB
					}
					w.rssMiB = append(w.rssMiB, total)
				}
			}
		}
	}()

	var wrWin window // the writer's tallies, merged after the join
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for k, off := range ld.due {
			due := start.Add(off)
			sleepFor(time.Until(due))
			sent := time.Now()
			wrWin.lateMs = append(wrWin.lateMs, float64(sent.Sub(due))/1e6)
			want := ld.seqAfter(k)
			mu.Lock()
			pending = append(pending, pend{seq: want, due: due})
			lastDue = due
			mu.Unlock()
			select {
			case kick <- struct{}{}:
			default:
			}
			ack, err := post(wr, ld.bodies[k%len(ld.bodies)])
			wrWin.ingestMs = append(wrWin.ingestMs, float64(time.Since(sent))/1e6)
			wrWin.batches++
			switch {
			case err != nil:
				wrWin.fail("batch %d: %v", k, err)
			case ack.Accepted != ld.spec.batch || ack.Seq != want:
				wrWin.fail("batch %d: acknowledged %d intervals at seq %d, want %d at %d", k, ack.Accepted, ack.Seq, ld.spec.batch, want)
			default:
				wrWin.accepted += ack.Accepted
			}
		}
		mu.Lock()
		sending = false
		mu.Unlock()
		select {
		case kick <- struct{}{}:
		default:
		}
	}()

	// Reader, on this goroutine.
	link, numLinks := 0, ld.top.NumLinks()
	lastSubsets := start
	var end time.Time
	for {
		mu.Lock()
		waiting, more, last := len(pending), sending, lastDue
		mu.Unlock()
		if !more && waiting == 0 {
			break
		}
		if !more && time.Since(last) > 5*time.Second {
			w.unresolved = waiting
			w.fail("%d batches unpublished 5s after the last send", waiting)
			break
		}
		if waiting == 0 && time.Since(lastSubsets) >= time.Second {
			// The heavy listing runs only while nothing waits for a
			// probe, so it never stands between a batch and its sample.
			lastSubsets = time.Now()
			code, _, err := rd.get("/v1/subsets")
			w.subsetMs = append(w.subsetMs, float64(time.Since(lastSubsets))/1e6)
			w.probes++
			if err != nil || code != http.StatusOK {
				w.fail("GET /v1/subsets: HTTP %d %v", code, err)
			}
			continue
		}
		t0 := time.Now()
		got, err := askLink(rd, link)
		t1 := time.Now()
		w.queryMs = append(w.queryMs, float64(t1.Sub(t0))/1e6)
		w.probes++
		link = (link + 1) % numLinks
		if err != nil {
			w.fail("probe: %v", err)
		} else {
			w.answers = append(w.answers, got)
		}
		mu.Lock()
		n := 0
		for n < len(pending) && pending[n].seq <= got.seqHigh {
			w.freshMs = append(w.freshMs, float64(t1.Sub(pending[n].due))/1e6)
			n++
		}
		pending = pending[n:]
		waiting = len(pending)
		mu.Unlock()
		end = t1
		if waiting > 0 {
			sleepFor(ld.spec.probeEvery)
			continue
		}
		select { // idle: background query load every 20 ms, or at once when a batch goes out
		case <-kick:
		case <-time.After(20 * time.Millisecond):
		}
	}
	cpu1, cerr := sampleProcs(tg.pids)
	close(stopSampler)
	wg.Wait()
	if cerr != nil {
		return nil, cerr
	}
	w.lateMs, w.ingestMs = wrWin.lateMs, wrWin.ingestMs
	w.batches, w.accepted = wrWin.batches, wrWin.accepted
	w.failed += wrWin.failed
	if w.firstErr == "" {
		w.firstErr = wrWin.firstErr
	}
	w.elapsedS = end.Sub(start).Seconds()
	for i := range cpu1 {
		w.cpuUserS += cpu1[i].userS - cpu0[i].userS
		w.cpuSysS += cpu1[i].sysS - cpu0[i].sysS
		w.cpuByProc = append(w.cpuByProc, cpu1[i].userS+cpu1[i].sysS-cpu0[i].userS-cpu0[i].sysS)
		w.peakMiB += cpu1[i].peakMiB
	}
	if w.after, err = scrapeAll(tg, rd); err != nil {
		return nil, fmt.Errorf("scraping after the window: %w", err)
	}
	return w, nil
}
