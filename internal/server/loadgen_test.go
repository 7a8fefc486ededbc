package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// loadConfig parameterizes a load-generation run: netsim.Model
// intervals simulated over the topology and POSTed at a running server
// in batches.
type loadConfig struct {
	Target    string // the server's base URL
	Intervals int    // total intervals to simulate and send
	BatchSize int    // intervals per POST
	Seed      int64  // simulation seed
	Sim       netsim.Config
	Client    *http.Client
}

// runLoadGen simulates cfg.Intervals netsim intervals over the topology
// (which must be the one the server was started with), drives them at
// the target server's ingest endpoint in batches, and returns how many
// intervals the server acknowledged.
func runLoadGen(ctx context.Context, top *topology.Topology, cfg loadConfig) (sent int, err error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	model, err := netsim.NewModel(top, cfg.Sim, cfg.Intervals, rng)
	if err != nil {
		return 0, fmt.Errorf("loadgen: %w", err)
	}
	url := strings.TrimSuffix(cfg.Target, "/") + "/v1/observations"

	batch := make([]IntervalObs, 0, cfg.BatchSize)
	for t := 0; t < cfg.Intervals; t++ {
		if err := ctx.Err(); err != nil {
			return sent, err
		}
		obs := model.Interval(t, rng)
		batch = append(batch, IntervalObs{CongestedPaths: obs.CongestedPaths.Indices()})
		if len(batch) == cfg.BatchSize || t == cfg.Intervals-1 {
			if err := postBatch(ctx, cfg.Client, url, batch); err != nil {
				return sent, err
			}
			sent += len(batch)
			batch = batch[:0]
		}
	}
	return sent, nil
}

// postBatch sends one ObservationsRequest and checks for a 200.
func postBatch(ctx context.Context, client *http.Client, url string, batch []IntervalObs) error {
	body, err := json.Marshal(ObservationsRequest{Intervals: batch})
	if err != nil {
		return fmt.Errorf("loadgen: encoding batch: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("loadgen: POST %s: %s: %s", url, resp.Status, strings.TrimSpace(string(msg)))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
