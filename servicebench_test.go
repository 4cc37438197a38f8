package lruleak_test

// The job server's capstone benchmark: many concurrent small jobs
// through a real in-process HTTP server, measuring client-observed
// submit-to-report throughput and tail latency. The workload cycles a
// small set of unique (spec, seed) grids, so most submissions join an
// already-running or cached job — by design: the content-addressed
// cache IS the service's throughput story, and the benchmark prices
// the whole path (HTTP, validation, content keying, dedup join,
// engine execution for the unique specs, report delivery).
//
// CI runs this with -benchtime 10000x so the reported throughput and
// latencies reflect at least ten thousand jobs. It lives in package
// lruleak_test because repro/internal/service imports the root package.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

func BenchmarkServiceThroughput(b *testing.B) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc)
	defer func() { ts.Close(); svc.Close() }()

	// 64 unique single-cell attack grids; submissions beyond the first
	// 64 are dedup joins onto running or finished jobs.
	const uniqueJobs = 64
	specs := make([]string, uniqueJobs)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{"kind":"attack","seed":%d,"attack":{"victims":["ttable"],"policies":["treeplru"],"defenses":["none"],"symbols":1,"votes":1,"profilingRounds":1}}`, i+1)
	}

	const clients = 128
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: clients, MaxIdleConnsPerHost: clients,
	}}

	var next atomic.Int64
	latencies := make([]time.Duration, b.N)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(ts.URL+"/v1/jobs", "application/json",
					strings.NewReader(specs[i%uniqueJobs]))
				if err != nil {
					b.Errorf("job %d: submit: %v", i, err)
					return
				}
				var body struct {
					ID string `json:"id"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil || body.ID == "" {
					b.Errorf("job %d: submit response (HTTP %d): %v", i, resp.StatusCode, err)
					return
				}
				rep, err := client.Get(ts.URL + "/v1/jobs/" + body.ID + "/report?wait=1")
				if err != nil {
					b.Errorf("job %d: report: %v", i, err)
					return
				}
				io.Copy(io.Discard, rep.Body)
				rep.Body.Close()
				if rep.StatusCode != http.StatusOK {
					b.Errorf("job %d: report HTTP %d", i, rep.StatusCode)
					return
				}
				latencies[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pctMs := func(q float64) float64 {
		i := int(q * float64(len(latencies)-1))
		return float64(latencies[i].Microseconds()) / 1000
	}
	unique := uniqueJobs
	if b.N < unique {
		unique = b.N
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "jobs_per_sec")
	b.ReportMetric(pctMs(0.50), "p50_ms")
	b.ReportMetric(pctMs(0.99), "p99_ms")
	b.ReportMetric(float64(unique), "unique_jobs")
}
