package harness

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/tracesynth/rostracer/internal/metrics"
	"github.com/tracesynth/rostracer/internal/pipeline"
	"github.com/tracesynth/rostracer/internal/sim"
)

// TestMetricsEndpointSmoke is the /metrics smoke test make check runs: a
// live short session on the pipeline drive loop (bundle, drain fan-out,
// metrics sink, snapshot instrumentation) served by metrics.Serve, the
// endpoint behind rostracer -metrics-addr, and scraped over real HTTP
// concurrently with the drive loop. Every scrape must be parseable
// Prometheus text exposition carrying the session's publish-latency
// histograms and ring accounting.
func TestMetricsEndpointSmoke(t *testing.T) {
	reg := metrics.NewRegistry()
	bound, err := metrics.Serve("127.0.0.1:0", func() *metrics.Registry { return reg })
	if err != nil {
		t.Fatal(err)
	}

	scrape := func() string {
		resp, err := http.Get("http://" + bound + "/metrics")
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("scrape content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("scrape body: %v", err)
		}
		return string(body)
	}

	// The live session: 8 segments of SYN+AVP under the tracers, each
	// drained through the pipeline's isolating fan-out into the metrics
	// sink and an online synthesis service, with the pipeline gauges
	// snapshotted per segment — rostracer's drive loop, minus the disk.
	const segDur = 250 * sim.Millisecond
	ps, err := pipeline.New(pipeline.Config{
		Seed: 1, CPUs: 4, Build: BuildBoth(1),
		Duration: 8 * segDur, Period: segDur,
		SnapshotEvery: 4 * segDur, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A scraper hammering the endpoint while the drive loop runs: the
	// endpoint must be serveable at any moment, not just between
	// segments (the -race gate turns any unsynchronized read into a
	// failure here).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := metrics.ParseExposition(scrape()); err != nil {
					t.Errorf("concurrent scrape unparseable: %v", err)
					return
				}
			}
		}
	}()
	rep, err := ps.Run(nil)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CloseErr != nil || len(rep.Detached) != 0 {
		t.Fatalf("fan-out close: %v, detached %+v", rep.CloseErr, rep.Detached)
	}

	// The final scrape carries the whole session.
	text := scrape()
	parsed, err := metrics.ParseExposition(text)
	if err != nil {
		t.Fatalf("final scrape unparseable: %v\n%s", err, text)
	}
	if parsed.Types["rostracer_publish_latency_ns"] != "histogram" {
		t.Fatalf("publish-latency family missing or mistyped: %v", parsed.Types)
	}
	var topicBuckets, ringPending, ringLost, kindCounters int
	for key := range parsed.Samples {
		switch {
		case strings.HasPrefix(key, `rostracer_publish_latency_ns_bucket{topic="`):
			topicBuckets++
		case strings.HasPrefix(key, `rostracer_ring_pending_records{cpu="`):
			ringPending++
		case strings.HasPrefix(key, `rostracer_ring_lost_records_total{cpu="`):
			ringLost++
		case strings.HasPrefix(key, `rostracer_events_total{kind="`):
			kindCounters++
		}
	}
	if topicBuckets == 0 || ringPending == 0 || ringLost == 0 || kindCounters == 0 {
		t.Fatalf("final scrape incomplete: %d topic buckets, %d ring pending, %d ring lost, %d kind counters\n%s",
			topicBuckets, ringPending, ringLost, kindCounters, text)
	}
	if v, ok := reg.Value("rostracer_synthesis_events_total", ""); !ok || v == 0 {
		t.Fatalf("synthesis progress not exported: %v,%v", v, ok)
	}
}
