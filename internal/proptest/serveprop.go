package proptest

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"spatialhadoop/internal/core"
	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/serve"
)

// CheckServePlanner is the metamorphic planner-path-independence
// invariant of the serving layer: for every range and kNN request in the
// workload, a server forced onto the local in-memory engine (pinned
// partitions) must answer byte-identically — status and body — to
// a server forced onto full MapReduce over the same loaded system. The
// planner's engine choice is an optimization and must never be
// observable in the response. Error requests (k = 0 and the like) are
// held to the same standard: both engines go through the same front
// door, so even failures must match.
func CheckServePlanner(c Case) string {
	return compareServers(c, "serve-planner",
		serve.Config{CacheSize: -1, Planner: serve.PlannerLocal},
		serve.Config{CacheSize: -1, MemTierBytes: -1, Planner: serve.PlannerMapReduce}, "")
}

// CheckServeSharded is the scatter/gather differential for the sharded
// serving engine: a server forced onto Planner "sharded" — routing every
// candidate partition to the worker holding its replica and gathering the
// fragments — must answer byte-identically (status and body) to a server
// forced onto the local in-memory engine over the same loaded system. The
// case is run under EngineSharded, so the scatters reach real
// serve-capable goroutine workers over RPC; every successful sharded
// response must also carry X-Engine: sharded, proving the fragments did
// come through the scatter path rather than an engine fallback.
func CheckServeSharded(c Case) string {
	c.Engine = EngineSharded
	return compareServers(c, "serve-sharded",
		serve.Config{CacheSize: -1, Planner: serve.PlannerSharded},
		serve.Config{CacheSize: -1, Planner: serve.PlannerLocal}, serve.PlannerSharded)
}

// compareServers stands two servers up over the case's loaded system and
// holds them to the same answer — status and body — for every request of
// the workload. wantEngine, when set, is the X-Engine every 200 of the
// first server must carry.
func compareServers(c Case, op string, a, b serve.Config, wantEngine string) string {
	if len(c.Pts) == 0 {
		return ""
	}
	sys, msg := c.loadPoints()
	if msg != "" {
		return msg
	}
	srvA := httptest.NewServer(serve.New(sys, a).Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(serve.New(sys, b).Handler())
	defer srvB.Close()
	for _, u := range c.serveRequests() {
		ac, ab, engine, err := serveGet(srvA.URL + u)
		if err != nil {
			return sprintf("%s %s GET %s: %v", op, a.Planner, u, err)
		}
		bc, bb, _, err := serveGet(srvB.URL + u)
		if err != nil {
			return sprintf("%s %s GET %s: %v", op, b.Planner, u, err)
		}
		if ac != bc || string(ab) != string(bb) {
			return sprintf("%s %s: %s engine (%d, %.200q) != %s engine (%d, %.200q)",
				op, u, a.Planner, ac, ab, b.Planner, bc, bb)
		}
		if wantEngine != "" && ac == http.StatusOK && engine != wantEngine {
			return sprintf("%s %s: X-Engine = %q, want %q", op, u, engine, wantEngine)
		}
	}
	return ""
}

// CheckReplaceWhileQuery is the ingest-meets-serving invariant: while the
// case's file is replaced — generation g holds the case's points plus g
// sentinel points — a local, a sharded (scattering to real serve workers)
// and a MapReduce client keep issuing the case's requests against it, and
// every response must be, status and body, exactly what the MapReduce
// engine answered for one whole generation while nothing else was running.
// A file is published atomically, so no engine may ever see a partial file,
// a mixture of two generations, or a missing file between them.
func CheckReplaceWhileQuery(c Case) string {
	if len(c.Pts) == 0 {
		return ""
	}
	const generations = 6
	load := func(sys *core.System, g int) string {
		pts := append([]geom.Point{}, c.Pts...)
		for i := 0; i < g; i++ {
			pts = append(pts, geom.Pt(float64(i)+0.25, float64(i)+0.75))
		}
		if _, err := sys.LoadPoints("pts", pts, c.Tech); err != nil {
			return sprintf("serve-replace load generation %d: %v", g, err)
		}
		return ""
	}
	requests := c.serveRequests()
	answer := func(u string, code int, body []byte) string { return sprintf("%s %d %s", u, code, body) }

	c.Engine = EngineSharded
	sys := c.System()
	srv := httptest.NewServer(serve.New(sys, serve.Config{CacheSize: -1}).Handler())
	defer srv.Close()

	// What each whole generation answers, asked serially, last to first so
	// the clients start on generation 0.
	oracle := map[string]bool{}
	for g := generations; g >= 0; g-- {
		if msg := load(sys, g); msg != "" {
			return msg
		}
		for _, u := range requests {
			code, body, _, err := serveGet(srv.URL + u + "&engine=" + serve.PlannerMapReduce)
			if err != nil {
				return sprintf("serve-replace oracle GET %s: %v", u, err)
			}
			oracle[answer(u, code, body)] = true
		}
	}
	engines := []string{serve.PlannerLocal, serve.PlannerSharded, serve.PlannerMapReduce}
	var (
		msg      string
		wg       sync.WaitGroup
		answered atomic.Int64
		stop     = make(chan struct{})
		fails    = make(chan string, len(engines))
	)
	for _, engine := range engines {
		wg.Add(1)
		go func(engine string) {
			defer wg.Done()
			for {
				for _, u := range requests {
					select {
					case <-stop:
						return
					default:
					}
					code, body, _, err := serveGet(srv.URL + u + "&engine=" + engine)
					if err != nil || !oracle[answer(u, code, body)] {
						fails <- sprintf("serve-replace %s: %s engine answered (%d, %.200q, %v) while the file was replaced; no whole generation answers that",
							u, engine, code, body, err)
						return
					}
					answered.Add(1)
				}
			}
		}(engine)
	}
	// The clients never pause; the writer lets a few answers through
	// between publications so every generation meets requests in flight.
	for g := 1; g <= generations && msg == "" && len(fails) == 0; g++ {
		msg = load(sys, g)
		for seen := answered.Load(); answered.Load() < seen+int64(len(engines)) && len(fails) == 0; {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	if msg == "" && len(fails) > 0 {
		msg = <-fails
	}
	return msg
}

// serveRequests renders the case's range and kNN workload over the file
// "pts" as request paths.
func (c Case) serveRequests() []string {
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var out []string
	for _, r := range c.Queries {
		out = append(out, "/rangequery?"+url.Values{
			"file": {"pts"},
			"rect": {ff(r.MinX) + "," + ff(r.MinY) + "," + ff(r.MaxX) + "," + ff(r.MaxY)},
		}.Encode())
	}
	for _, kq := range c.KNNs {
		out = append(out, "/knn?"+url.Values{
			"file":  {"pts"},
			"point": {ff(kq.Q.X) + "," + ff(kq.Q.Y)},
			"k":     {strconv.Itoa(kq.K)},
		}.Encode())
	}
	return out
}

// serveGet issues one GET and returns status, body and the X-Engine
// header (errors are transport failures, not HTTP error statuses).
func serveGet(u string) (int, []byte, string, error) {
	resp, err := http.Get(u)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, "", err
	}
	return resp.StatusCode, body, resp.Header.Get("X-Engine"), nil
}
