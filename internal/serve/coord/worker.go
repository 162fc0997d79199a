package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"meetpoly"
	"meetpoly/internal/faultinject"
	"meetpoly/internal/serve"
)

// WorkerConfig configures one coordinator worker: an rvserved process
// (or test goroutine) that pulls leases and executes them.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string

	// Engine executes leased cells.
	Engine *meetpoly.Engine

	// Name identifies this worker in /v1/status. Empty means
	// "anonymous".
	Name string

	// Dir is the worker's private checkpoint directory (empty disables
	// checkpointing). A worker that crashes mid-lease and restarts on
	// the same directory replays its sealed cells instead of
	// recomputing them — even when the lease it resumes under covers
	// different ranges, only the overlap replays.
	Dir string

	// FlushEvery is the checkpoint flush interval in completed cells.
	FlushEvery int

	// Faults is the chaos harness, threaded into every leased
	// RunShard. A scheduled kill surfaces as faultinject.ErrKilled from
	// RunWorker — the caller (rvserved -coordinator) exits like a
	// killed process, the heartbeat stops, and the lease expires back
	// into the pool.
	Faults *faultinject.Injector

	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

// waitFloor bounds how briefly a worker sleeps on a "wait" response,
// whatever the coordinator's hint.
const waitFloor = 10 * time.Millisecond

// RunWorker pulls leases until the coordinator reports the campaign
// done, executing each lease's exact ranges through serve.RunShard and
// streaming the results back as NDJSON. It heartbeats at TTL/3 while a
// lease runs. Canceled cells are never submitted: the coordinator
// rejects them, so a budget-truncated lease completes only what
// actually ran and the remainder re-leases.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	client := cfg.HTTP
	if client == nil {
		client = http.DefaultClient
	}

	spec, err := fetchSpec(ctx, client, cfg.Coordinator)
	if err != nil {
		return err
	}

	for {
		lr, err := requestLease(ctx, client, cfg)
		if err != nil {
			return err
		}
		switch lr.Status {
		case "done":
			return nil
		case "wait":
			wait := max(time.Duration(lr.RetryMs)*time.Millisecond, waitFloor)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
			continue
		case "lease":
			if err := runLease(ctx, client, cfg, spec, lr); err != nil {
				return err
			}
		default:
			return fmt.Errorf("coord: worker %s: unknown lease status %q", cfg.Name, lr.Status)
		}
	}
}

// runLease executes one granted lease end to end: heartbeat loop,
// RunShard over exactly the leased ranges, then the Complete upload.
func runLease(ctx context.Context, client *http.Client, cfg WorkerConfig, spec meetpoly.SweepSpec, lr LeaseResponse) error {
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	ttl := time.Duration(lr.TTLMs) * time.Millisecond
	go heartbeat(hbCtx, client, cfg.Coordinator, lr.Lease, ttl/3)

	var buf bytes.Buffer
	_, err := serve.RunShard(ctx, serve.ShardConfig{
		Engine:     cfg.Engine,
		Spec:       spec,
		Ranges:     lr.Ranges,
		Dir:        cfg.Dir,
		FlushEvery: cfg.FlushEvery,
		Faults:     cfg.Faults,
	}, func(cr meetpoly.SweepCellResult, line []byte) bool {
		if cr.Outcome.Canceled {
			return true // not a result; the remainder re-leases
		}
		buf.Write(line) // the cell's one encoding, as checkpointed and streamed
		return true
	})
	if err != nil {
		// An injected kill is the whole point of the harness: surface
		// it so the process dies without completing — the lease must
		// expire, not be returned politely.
		return err
	}
	stopHB()
	return complete(ctx, client, cfg.Coordinator, lr.Lease, &buf)
}

// heartbeat extends the lease every interval until ctx cancels or the
// coordinator declares the lease gone.
func heartbeat(ctx context.Context, client *http.Client, base, id string, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/heartbeat?lease="+id, nil)
		if err != nil {
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			continue // transient; the next tick retries inside the TTL
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusGone {
			return // lease reclaimed; Complete will still be accepted
		}
	}
}

func fetchSpec(ctx context.Context, client *http.Client, base string) (meetpoly.SweepSpec, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/spec", nil)
	if err != nil {
		return meetpoly.SweepSpec{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return meetpoly.SweepSpec{}, fmt.Errorf("coord: fetching spec: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return meetpoly.SweepSpec{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return meetpoly.SweepSpec{}, fmt.Errorf("coord: fetching spec: %s: %s", resp.Status, data)
	}
	return meetpoly.SweepSpecFromJSON(data)
}

func requestLease(ctx context.Context, client *http.Client, cfg WorkerConfig) (LeaseResponse, error) {
	url := cfg.Coordinator + "/v1/lease"
	if cfg.Name != "" {
		url += "?worker=" + cfg.Name
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return LeaseResponse{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return LeaseResponse{}, fmt.Errorf("coord: requesting lease: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return LeaseResponse{}, fmt.Errorf("coord: requesting lease: %s: %s", resp.Status, data)
	}
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return LeaseResponse{}, fmt.Errorf("coord: decoding lease: %w", err)
	}
	return lr, nil
}

func complete(ctx context.Context, client *http.Client, base, id string, body io.Reader) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/complete?lease="+id, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("coord: completing lease %s: %w", id, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coord: completing lease %s: %s: %s", id, resp.Status, data)
	}
	return nil
}
