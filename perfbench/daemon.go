package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// goldenAttackJob is the spec whose report testdata/attacksweep.golden
// pins (the service conformance suite submits the same JSON).
const goldenAttackJob = `{"kind":"attack","seed":7,"attack":{"victims":["ttable"],"policies":["treeplru"],"symbols":6}}`

// attackJob is the daemon workload's single-cell job: one baseline
// (defense none) Tree-PLRU key-recovery attack, small enough that the
// service, store and metrics costs show beside the simulation.
func attackJob(seed uint64) string {
	return fmt.Sprintf(`{"kind":"attack","seed":%d,"attack":{"victims":["ttable"],"policies":["treeplru"],"defenses":["none"],"symbols":4,"votes":1,"profilingRounds":2}}`, seed)
}

const (
	// repeatEvery: one submission in repeatEvery resubmits a spec the
	// client already completed (a dedup hit, the read path).
	repeatEvery = 4
	// jobInterval paces the client: submission n is due n intervals
	// into the window. A new job takes under half of it on the
	// reference host, so a host at half speed still keeps up, every run
	// completes the same jobs and the server holds the same state.
	jobInterval = 80 * time.Millisecond
)

// daemon is an in-process lruleakd: a service.Server on a disk store,
// served over a real loopback listener.
type daemon struct {
	srv    *service.Server
	st     *timedStore
	hs     *http.Server
	addr   string
	served chan error
}

// startDaemon opens the store in dir (its recovery scan included),
// starts the server and its listener, and returns once /healthz
// answers.
func (r *run) startDaemon(dir string, client *http.Client) (*daemon, error) {
	disk, err := store.OpenDisk(dir, store.DiskOptions{})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	st := &timedStore{Store: disk, tr: r.tr}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		disk.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    service.New(service.Config{EngineWorkers: engineWorkers, Store: st}),
		st:     st,
		addr:   ln.Addr().String(),
		served: make(chan error, 1),
	}
	d.hs = &http.Server{Handler: d.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.hs.Serve(ln) }()
	r.lastAddr = d.addr
	code, _, err := r.get(client, "http://"+d.addr+"/healthz")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("healthz: HTTP %d", code)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the listener and every connection, then the server, its
// engine pool and the store. It returns once the serving goroutine has
// exited.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.served
	d.srv.Close()
}

func (r *run) get(client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(client, req)
}

func (r *run) post(client *http.Client, url, body string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(client, req)
}

func do(client *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// submitted is the part of the POST /v1/jobs answer the clients use.
type submitted struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	Dedup bool   `json:"dedup"`
}

// jobResult is one client request: submit, then wait for the report.
type jobResult struct {
	repeat         bool
	traced         bool
	submit, wait   time.Duration
	cpu            time.Duration // process CPU time from submit to report
	cellMs         []float64
	ok, dedup      bool
	rejected       bool
	newKey, digest string
}

// runDaemon is the daemon workload:
//
//   - set-up, several times (see moreSetups): open the store in the
//     temp dir (recovery scan), start the server and its listener, wait
//     for /healthz, and submit the golden attack job, whose report must
//     equal testdata/attacksweep.golden. The first set-up computes it;
//     later ones restart on the same directory and are served from the
//     store. setup_s is the median CPU time of a set-up.
//   - the timed window: one client, a user waiting on report?wait=1
//     before its next submission, paced at one submission per
//     jobInterval. About three in four submissions are new seeds
//     (compute, store.Put); the rest resubmit one of the client's
//     completed specs (a dedup hit) whose report must be
//     byte-identical. Between jobs it scrapes /metrics once a second.
//     op_cpu_ms is the CPU time of one job of that mix (see mixCPU). A
//     traced run traces every other second.
//
// Every exit path closes the listener, server and store and removes the
// temp dir before returning.
func (r *run) runDaemon() error {
	base := filepath.Join(r.cfg.root, ".bench_build", "perfbench", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "daemon-")
	if err != nil {
		return err
	}
	r.lastDir = dir
	defer os.RemoveAll(dir)
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}

	golden, err := os.ReadFile(filepath.Join(r.cfg.root, "testdata", "attacksweep.golden"))
	if err != nil {
		return fmt.Errorf("read golden: %w", err)
	}
	var d *daemon
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	var setups, setupWalls []float64
	for k := 0; moreSetups(k, setupWalls); k++ {
		if d != nil {
			d.close()
			d = nil
		}
		r.setupSpeed.sample(2)
		t0, c0 := time.Now(), cpuTime()
		if k == 0 {
			// The first set-up counts from process start.
			t0, c0 = r.start, 0
		}
		if d, err = r.startDaemon(dir, client); err != nil {
			return err
		}
		res := r.job(client, d, goldenAttackJob)
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
		if err := r.ctx.Err(); err != nil {
			return err
		}
		r.printRender(fmt.Sprintf("setup%d", k+1), goldenSeed, res.report, time.Since(t0))
		r.check(res.ok && res.report == string(golden),
			"golden attack job (set-up %d): report differs from testdata/attacksweep.golden", k+1)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tw := time.Now()
	jobs, scrapeMs, scrapeBytes := r.client(client, d, tw, tw.Add(time.Duration(r.cfg.seconds)*time.Second))
	r.tr.setOn(false)
	elapsed := time.Since(tw)
	runtime.ReadMemStats(&ms1)
	if err := r.ctx.Err(); err != nil {
		return err
	}

	var newLat, repLat, newCPU, repCPU, submitMs, waitMs, cells, tracedNew, untracedNew []float64
	var done, dedups, rejected int
	var cellTotal float64
	digest := sha256.New()
	for _, j := range jobs {
		r.check(j.ok, "job failed (repeat=%v)", j.repeat)
		if j.rejected {
			rejected++
		}
		if j.dedup {
			dedups++
		}
		cellTotal += sum(j.cellMs)
		if !j.ok {
			continue
		}
		done++
		lat := ms(j.submit + j.wait)
		if j.traced {
			submitMs = append(submitMs, ms(j.submit))
		}
		if j.repeat {
			repLat = append(repLat, lat)
			repCPU = append(repCPU, ms(j.cpu))
			continue
		}
		newLat = append(newLat, lat)
		newCPU = append(newCPU, ms(j.cpu))
		fmt.Fprintf(digest, "%s %s\n", j.newKey, j.digest)
		if j.traced {
			waitMs = append(waitMs, ms(j.wait))
			cells = append(cells, j.cellMs...)
			tracedNew = append(tracedNew, lat)
		} else {
			untracedNew = append(untracedNew, lat)
		}
	}
	fmt.Fprintf(r.out, "render workload=%s phase=jobs new=%d repeat=%d sha256-of-report-hashes=%x\n",
		r.cfg.workload, len(newLat), len(repLat), digest.Sum(nil))
	fmt.Fprintf(r.out, "jobs new_p50_ms=%.3f repeat_p50_ms=%.3f new_cpu_p50_ms=%.3f repeat_cpu_p50_ms=%.3f\n",
		median(newLat), median(repLat), median(newCPU), median(repCPU))

	r.e2e["setup_s"] = median(setups)
	r.e2e["op_cpu_ms"] = mixCPU(newCPU, repCPU)

	if r.tr != nil {
		r.tr.adopt("store", "submit", "report_wait")
		self, count := r.tr.selfTimes()
		for _, name := range []string{"submit", "report_wait", "store", "scrape"} {
			if count[name] > 0 {
				r.layer["trace.self_ms."+name] = self[name] / float64(count[name])
			}
		}
		r.layer["engine.cell_p50_ms"] = median(cells)
		r.layer["engine.cell_tail_ms"] = quantile(cells, 0.95)
		r.layer["engine.busy_frac"] = cellTotal / (ms(elapsed) * float64(engineWorkers))
		r.layer["service.submit_ms"] = median(submitMs)
		r.layer["service.report_wait_ms"] = median(waitMs)
		r.layer["service.dedup_hit_frac"] = float64(dedups) / float64(max(len(jobs), 1))
		r.layer["service.rejected"] = float64(rejected)
		d.st.mu.Lock()
		r.layer["store.put_ms"] = median(d.st.putMs)
		r.layer["store.get_ms"] = median(d.st.getMs)
		r.layer["store.put_failures"] = float64(d.st.putFailures)
		d.st.mu.Unlock()
		r.layer["metrics.scrape_ms"] = median(scrapeMs)
		r.layer["metrics.scrape_bytes"] = median(scrapeBytes)
		r.layer["trace.overhead_frac"] = overhead(tracedNew, untracedNew)
		r.memPerOp(ms0, ms1, done)
	}
	return nil
}

// mixCPU is the CPU time of one job of the client's mix, three new jobs
// to one resubmission, from the median CPU time of each kind. Taking
// each kind's median, rather than the mean over the jobs a seed drew,
// keeps the mix the same on every run.
func mixCPU(newCPU, repCPU []float64) float64 {
	return (float64(repeatEvery-1)*median(newCPU) + median(repCPU)) / repeatEvery
}

// client is the closed-loop user: it submits, waits for the report, and
// only then submits again, at most one submission per jobInterval,
// until end; between jobs it samples the host's speed and scrapes
// /metrics once a second. Its choice
// of new or repeated spec comes from the run's seed alone. It returns
// every job it finished and the time and size of every scrape.
func (r *run) client(hc *http.Client, d *daemon, start, end time.Time) (out []jobResult, scrapeMs, scrapeBytes []float64) {
	rng := rand.New(rand.NewPCG(r.cfg.seed, 0))
	type completed struct{ spec, report string }
	var mine []completed
	nextScrape := start.Add(time.Second)
	for n := 0; r.ctx.Err() == nil; n++ {
		due := start.Add(time.Duration(n) * jobInterval)
		if !due.Before(end) {
			break
		}
		if !r.sleepUntil(due) {
			break
		}
		// Traced runs trace every other second, so traced and untraced
		// jobs interleave in time.
		r.tr.setOn(int(time.Since(start)/time.Second)%2 == 0)
		repeat := len(mine) > 0 && rng.IntN(repeatEvery) == 0
		var spec string
		var want *completed
		if repeat {
			want = &mine[rng.IntN(len(mine))]
			spec = want.spec
		} else {
			spec = attackJob(r.cfg.seed<<32 | uint64(n))
		}
		res := r.job(hc, d, spec)
		if r.ctx.Err() != nil {
			break
		}
		jr := res.jobResult
		jr.repeat = repeat
		if repeat {
			// A resubmission is answered by the completed job: a
			// dedup hit with a byte-identical report.
			jr.ok = jr.ok && res.dedup && res.report == want.report
		} else {
			jr.ok = jr.ok && !res.dedup
			if jr.ok {
				mine = append(mine, completed{spec, res.report})
			}
		}
		out = append(out, jr)
		r.rss = append(r.rss, residentMB())
		if !time.Now().Before(nextScrape) {
			nextScrape = nextScrape.Add(time.Second)
			r.speed.sample(1)
			t0 := time.Now()
			code, body, err := r.get(hc, "http://"+d.addr+"/metrics")
			t1 := time.Now()
			r.tr.record("scrape", fmt.Sprintf("scrape-%d", len(scrapeMs)), 0, t0, t1)
			r.check(err == nil && code == http.StatusOK && len(body) > 0, "scrape: HTTP %d (%v)", code, err)
			scrapeMs = append(scrapeMs, ms(t1.Sub(t0)))
			scrapeBytes = append(scrapeBytes, float64(len(body)))
		}
	}
	return out, scrapeMs, scrapeBytes
}

// sleepUntil waits until t; it reports false if the run ended first.
func (r *run) sleepUntil(t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-r.ctx.Done():
		return false
	}
}

type jobReply struct {
	jobResult
	report string
}

// job submits one spec and waits for its report, recording spans when
// the tracer is on: a job span with its submit and report_wait
// children, all under the job's content key.
func (r *run) job(hc *http.Client, d *daemon, spec string) jobReply {
	var res jobReply
	base := "http://" + d.addr
	t0, c0 := time.Now(), cpuTime()
	res.traced = r.tr.enabled()
	code, body, err := r.post(hc, base+"/v1/jobs", spec)
	t1 := time.Now()
	res.submit = t1.Sub(t0)
	var sub submitted
	if err != nil || (code != http.StatusOK && code != http.StatusAccepted) || json.Unmarshal(body, &sub) != nil {
		res.rejected = err == nil && code != http.StatusOK && code != http.StatusAccepted
		return res
	}
	res.dedup = sub.Dedup
	code, body, err = r.get(hc, base+"/v1/jobs/"+sub.ID+"/report?wait=1")
	t2 := time.Now()
	res.cpu = cpuTime() - c0
	res.wait = t2.Sub(t1)
	res.report = string(body)
	res.ok = err == nil && code == http.StatusOK
	res.newKey = sub.Key
	res.digest = fmt.Sprintf("%x", sha256.Sum256(body))
	if j, found := d.srv.JobByID(sub.ID); found && !sub.Dedup {
		for _, ev := range j.Events() {
			res.cellMs = append(res.cellMs, ev.WallMs)
		}
	}
	if res.traced {
		jid := r.tr.record("job", sub.Key, 0, t0, t2)
		r.tr.record("submit", sub.Key, jid, t0, t1)
		r.tr.record("report_wait", sub.Key, jid, t1, t2)
	}
	return res
}
