package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/internal/server"
)

// samples is one scrape of a daemon's /metrics: series name, exactly
// as exposed (`name` or `name{a="b",c="d"}`), to value.
type samples map[string]float64

// parseMetrics reads the Prometheus text exposition format 0.0.4 as
// internal/telemetry renders it: comment lines, then one
// `series value` line per sample. Label values may contain spaces
// (route="POST /v1/observations"), so the value is whatever follows
// the last space.
func parseMetrics(r io.Reader) (samples, error) {
	out := samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: no value in line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family whose label string contains all
// of the given `key="value"` fragments ("" family-wide).
func (s samples) sum(family string, labels ...string) float64 {
	total := 0.0
	for name, v := range s {
		base, rest, _ := strings.Cut(name, "{")
		if base != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is after − before, series by series (a series absent before
// counts from zero: labeled children appear on first use).
func (s samples) delta(before samples) samples {
	out := make(samples, len(s))
	for name, v := range s {
		out[name] = v - before[name]
	}
	return out
}

// histMean is the mean of a histogram's observations in milliseconds
// over a delta (0 when nothing was observed).
func (s samples) histMeanMs(family string, labels ...string) float64 {
	n := s.sum(family+"_count", labels...)
	if n == 0 {
		return 0
	}
	return s.sum(family+"_sum", labels...) / n * 1000
}

// httpc is one keep-alive connection to a daemon: the harness uses
// exactly two of them for load (writer, reader).
type httpc struct {
	base string
	hc   *http.Client
}

func newHTTPC(base string) *httpc {
	return &httpc{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
	}}}
}

func (c *httpc) close() { c.hc.CloseIdleConnections() }

// get fetches path and returns status and body.
func (c *httpc) get(path string) (int, []byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getData fetches a v1 endpoint and decodes the envelope's data into v.
func (c *httpc) getData(path string, v any) error {
	code, body, err := c.get(path)
	if err != nil {
		return err
	}
	return decodeEnvelope(path, code, body, v)
}

func decodeEnvelope(what string, code int, body []byte, v any) error {
	var env server.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("%s: HTTP %d, undecodable body: %v", what, code, err)
	}
	if env.Error != nil {
		return fmt.Errorf("%s: HTTP %d %s: %s", what, code, env.Error.Code, env.Error.Message)
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", what, code)
	}
	return json.Unmarshal(env.Data, v)
}

func (c *httpc) metrics() (samples, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func (c *httpc) status() (*server.StatusResponse, error) {
	var st server.StatusResponse
	if err := c.getData("/v1/status", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// procSample is one reading of a process's CPU time and resident set
// from /proc.
type procSample struct {
	userS, sysS float64
	rssMiB      float64
	peakMiB     float64
}

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat,
// 100 on every Linux the Go toolchain supports.
const clockTick = 100

func readProc(pid int) (procSample, error) {
	var ps procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	i := strings.LastIndexByte(string(stat), ')')
	fields := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(fields) < 13 {
		return ps, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("/proc/%d/stat: unparsable cpu times", pid)
	}
	ps.userS, ps.sysS = ut/clockTick, st/clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		kb, _ := strconv.ParseFloat(f[1], 64)
		switch f[0] {
		case "VmRSS:":
			ps.rssMiB = kb / 1024
		case "VmHWM:":
			ps.peakMiB = kb / 1024
		}
	}
	return ps, nil
}
