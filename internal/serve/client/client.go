// Package client is the self-healing sweep client: the consumer-side
// half of the fault-tolerance story. It streams a campaign's cell
// results from an rvserved instance and survives everything the fault
// model throws at the wire — connection resets mid-NDJSON, 5xx bursts,
// load-shedding 429/503s, server restarts — by folding results as they
// arrive into the order-independent aggregator and re-requesting
// exactly the gap set (campaign.IndexSet.Gaps) after every failure.
// Nothing is ever fetched twice on a healthy path, nothing is lost on
// an unhealthy one, and the final report is byte-identical to an
// uninterrupted single-process run.
//
// Retry policy: 429/503 honor the server's Retry-After hint; those,
// 409 (campaign busy on the server), other 5xx, and transport errors
// are retryable with exponential backoff plus seeded jitter; any other
// 4xx is terminal (the request itself is wrong — retrying cannot fix
// a malformed spec). Consecutive attempts that make no progress are
// capped by MaxStalls; any received cell resets the stall counter.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"meetpoly"
	"meetpoly/internal/campaign"
)

// Config configures a Client.
type Config struct {
	// BaseURL is the rvserved instance, e.g. "http://localhost:8747".
	BaseURL string

	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client

	// Tenant is sent as the X-Tenant header when non-empty.
	Tenant string

	// MaxStalls caps consecutive attempts that deliver zero new cells;
	// <= 0 means DefaultMaxStalls. Progress resets the counter, so a
	// flaky link that still trickles results never trips it.
	MaxStalls int

	// BaseBackoff / MaxBackoff bound the exponential retry delay;
	// zero values mean the defaults. The actual wait is the larger of
	// the backoff and the server's Retry-After hint, plus jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// JitterSeed seeds the backoff jitter, making a test's retry
	// timeline reproducible. 0 means 1.
	JitterSeed int64

	// OnRetry, when set, observes every retryable failure before the
	// client sleeps: the error, the attempt's stall count and the wait.
	OnRetry func(err error, stalls int, wait time.Duration)

	// Metrics receives the client's healing series: retries by
	// classification, backoff sleep time, healed gap ranges, duplicate
	// cells dropped. Nil records nothing.
	Metrics *meetpoly.Metrics

	// Log receives retry/heal events. Nil discards them.
	Log *slog.Logger
}

// Client retry defaults.
const (
	DefaultMaxStalls   = 8
	DefaultBaseBackoff = 50 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second
)

// ErrStalled reports that MaxStalls consecutive attempts delivered no
// new cell results.
var ErrStalled = errors.New("client: no progress after max consecutive retries")

// terminalError wraps a non-retryable HTTP refusal.
type terminalError struct {
	status int
	body   string
}

func (e *terminalError) Error() string {
	return fmt.Sprintf("client: terminal response %d: %s", e.status, strings.TrimSpace(e.body))
}

// Client streams campaigns from one rvserved instance.
type Client struct {
	cfg Config
	rng *rand.Rand
	m   *clientMetrics
	log *slog.Logger
}

// New builds a client. The zero-ish Config{BaseURL: url} is usable.
func New(cfg Config) *Client {
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.MaxStalls <= 0 {
		cfg.MaxStalls = DefaultMaxStalls
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = DefaultBaseBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = 1
	}
	return &Client{
		cfg: cfg,
		rng: rand.New(rand.NewSource(seed)),
		m:   newClientMetrics(cfg.Metrics),
		log: cfg.Log,
	}
}

// Sweep runs spec remotely, streaming every cell result to emit (nil
// to ignore) exactly once as it first arrives, and returns the
// aggregate report — byte-compatible with a local Engine.Sweep of the
// same spec. Canceled cells (the server's budget expired mid-run) are
// neither folded nor emitted: they stay gaps, and the next request
// re-executes them for real.
func (c *Client) Sweep(ctx context.Context, spec meetpoly.SweepSpec, emit func(meetpoly.SweepCellResult) bool) (*meetpoly.SweepReport, error) {
	total, err := meetpoly.CountSweep(spec)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}

	agg := campaign.NewAggregator(spec, nil)
	var done campaign.IndexSet
	stalls := 0
	for done.Len() < total {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		got, attemptErr := c.attempt(ctx, body, &done, total, agg, emit)
		if errors.Is(attemptErr, errStopped) {
			return nil, attemptErr
		}
		var term *terminalError
		if errors.As(attemptErr, &term) {
			return nil, attemptErr
		}
		if got > 0 {
			stalls = 0
		} else {
			stalls++
			if stalls >= c.cfg.MaxStalls {
				return nil, fmt.Errorf("%w (last error: %v)", ErrStalled, attemptErr)
			}
		}
		if done.Len() == total {
			break
		}
		wait := c.backoff(stalls, attemptErr)
		if attemptErr != nil {
			if c.cfg.OnRetry != nil {
				c.cfg.OnRetry(attemptErr, stalls, wait)
			}
			c.log.Warn("retrying after failure", "err", attemptErr, "stalls", stalls,
				"wait", wait, "done", done.Len(), "total", total)
		}
		if wait > 0 {
			c.m.backedOff(wait)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(wait):
			}
		}
	}
	return agg.Report(), nil
}

// errStopped: the caller's emit returned false.
var errStopped = errors.New("client: stopped by consumer")

// retryAfterError carries a server Retry-After hint up to backoff.
type retryAfterError struct {
	status int
	hint   time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("client: server refused with %d (Retry-After %s)", e.status, e.hint)
}

// attempt performs one HTTP round: request the current gap set, stream
// until the connection ends (cleanly or not), fold what arrived.
// Returns how many new cells landed; the error is nil only when a clean
// trailer ends a stream that delivered every requested cell.
func (c *Client) attempt(ctx context.Context, spec []byte, done *campaign.IndexSet, total int, agg *campaign.Aggregator, emit func(meetpoly.SweepCellResult) bool) (int, error) {
	requested := total - done.Len()
	url := c.cfg.BaseURL + "/v1/sweep"
	if done.Len() > 0 {
		// Resume: request exactly the gaps. The server replays nothing
		// we already hold, and its own checkpoint means the gap cells
		// may not even re-execute server-side.
		var parts []string
		for _, gap := range done.Gaps(0, total) {
			parts = append(parts, fmt.Sprintf("%d-%d", gap.Lo, gap.Hi))
		}
		url += "?ranges=" + strings.Join(parts, ",")
		c.m.healed(len(parts))
		c.log.Debug("healing stream", "gaps", len(parts), "done", done.Len())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(spec))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.cfg.Tenant != "" {
		req.Header.Set("X-Tenant", c.cfg.Tenant)
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		c.m.retriedTransport()
		return 0, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusOK:
		// Stream below.
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable:
		hint := parseRetryAfter(resp.Header.Get("Retry-After"))
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		c.m.retriedRetryAfter()
		return 0, &retryAfterError{status: resp.StatusCode, hint: hint}
	case resp.StatusCode == http.StatusConflict || resp.StatusCode >= 500:
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		c.m.retriedHTTP()
		return 0, fmt.Errorf("client: retryable response %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	default:
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return 0, &terminalError{status: resp.StatusCode, body: string(data)}
	}

	got := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	sawTrailer := false
	var trailerErr string
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		sl, isCell, err := decodeStreamLine(line)
		if err != nil {
			c.m.retriedStream()
			return got, err
		}
		if !isCell {
			sawTrailer = true
			trailerErr = sl.Error
			break
		}
		cr := sl.SweepCellResult
		if cr.Outcome.Canceled {
			continue // not a result: the gap persists and is re-requested
		}
		if !done.Add(cr.Cell.Index) {
			c.m.duplicate()
			continue // duplicate across a resume boundary: already folded
		}
		agg.Add(cr)
		c.m.cell()
		got++
		if emit != nil && !emit(cr) {
			return got, errStopped
		}
	}
	if err := sc.Err(); err != nil {
		// Mid-stream cut: everything folded so far is kept; the caller
		// retries with the shrunken gap set.
		c.m.retriedStream()
		return got, fmt.Errorf("client: stream interrupted: %w", err)
	}
	if !sawTrailer {
		c.m.retriedStream()
		return got, errors.New("client: stream ended without a trailer (connection reset)")
	}
	if trailerErr != "" {
		c.m.retriedHTTP()
		return got, fmt.Errorf("client: server reported: %s", trailerErr)
	}
	if missing := total - done.Len(); missing > 0 {
		// A clean trailer can still leave gaps: the server's budget
		// canceled them. They are re-requested like any cut stream's.
		c.m.retriedStream()
		return got, fmt.Errorf("client: stream ended with %d of %d requested cells undelivered", missing, requested)
	}
	return got, nil
}

// streamLine is one /v1/sweep line decoded in a single pass: a cell
// result with the trailer's done and error beside it, so decoding a
// cell line type-checks those two fields exactly as the probe does.
type streamLine struct {
	meetpoly.SweepCellResult
	Done  bool   `json:"done"`
	Error string `json:"error"`
}

// cellLinePrefix opens every cell line the server writes.
var cellLinePrefix = []byte(`{"cell":{`)

// decodeStreamLine decodes one stream line: either a cell result
// (isCell) or the trailer, which has no cell and carries done and
// error. A line that opens with the cell object, as every cell line
// the server writes does, is decoded once, into streamLine. Any other
// line is probed for a cell first and, when it has one, decoded again
// as a result. Both ways accept and reject the same lines, except one
// shape no encoder writes: a cell object followed by the "cell" key
// again with null. The probe reads that line as a trailer; here it
// reads as it would without its null cells.
func decodeStreamLine(line []byte) (sl streamLine, isCell bool, err error) {
	if bytes.HasPrefix(line, cellLinePrefix) {
		if err := json.Unmarshal(line, &sl); err != nil {
			if _, torn := err.(*json.SyntaxError); torn {
				return streamLine{}, false, garbled(err)
			}
			return streamLine{}, false, fmt.Errorf("client: decoding cell result: %w", err)
		}
		return sl, true, nil
	}
	var probe struct {
		Cell  *json.RawMessage `json:"cell"`
		Done  bool             `json:"done"`
		Error string           `json:"error"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return streamLine{}, false, garbled(err)
	}
	if probe.Cell == nil {
		return streamLine{Done: probe.Done, Error: probe.Error}, false, nil
	}
	if err := json.Unmarshal(line, &sl.SweepCellResult); err != nil {
		return streamLine{}, false, fmt.Errorf("client: decoding cell result: %w", err)
	}
	return sl, true, nil
}

// garbled reports a stream line that is not JSON, or whose done or
// error has the wrong type.
func garbled(err error) error {
	return fmt.Errorf("client: undecodable stream line (connection garbled?): %w", err)
}

// backoff computes the wait before the next attempt: exponential in
// the stall count with seeded jitter, floored by any Retry-After hint
// the server sent.
func (c *Client) backoff(stalls int, cause error) time.Duration {
	if stalls == 0 {
		return 0 // fresh progress: go straight back for the rest
	}
	d := c.cfg.BaseBackoff << uint(stalls-1)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	d += time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	var ra *retryAfterError
	if errors.As(cause, &ra) && ra.hint > d {
		d = ra.hint
	}
	return d
}

func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
