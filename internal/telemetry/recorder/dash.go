package recorder

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"time"
)

// This file is the live ops dashboard riding on the recorder: an SSE
// endpoint streaming samples as they are recorded, and a self-contained
// HTML page (zero external assets — inline CSS and JS, canvas-drawn
// sparklines) that renders the hot-path series an operator watches during
// a contact: transform latency, pool occupancy, cache hit rate, downlink
// utilization, and the mission-event and deferral-drain rates published
// by journaled simulation runs (sim.events.*, sim.drain.*).

// StreamHandler serves the recorder's samples as Server-Sent Events:
// first the retained fine-resolution history (so a freshly opened
// dashboard has a line to draw immediately), then every new sample as it
// is recorded. Each event is one JSON-encoded Sample under event type
// "sample". The stream runs until the client disconnects.
func (r *Recorder) StreamHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
		w.Header().Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)

		send := func(s Sample) error {
			data, err := json.Marshal(s)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "event: sample\ndata: %s\n\n", data)
			return err
		}

		if r == nil {
			// No recorder: an empty, immediately flushed stream (the page
			// shows "waiting for samples" rather than an error).
			fmt.Fprint(w, ": no recorder attached\n\n")
			flusher.Flush()
			<-req.Context().Done()
			return
		}

		ch, cancel := r.Subscribe(16)
		defer cancel()
		// History after subscribing: a sample recorded in between may be
		// delivered twice, which the dashboard tolerates (it keys on
		// wallMs); the reverse order could lose one entirely.
		for _, s := range r.Samples(time.Time{}) {
			if err := send(s); err != nil {
				return
			}
		}
		flusher.Flush()

		for {
			select {
			case <-req.Context().Done():
				return
			case s, ok := <-ch:
				if !ok {
					return
				}
				if err := send(s); err != nil {
					return
				}
				flusher.Flush()
			}
		}
	})
}

// PageHandler serves the dashboard page. streamPath is the URL of the
// SSE endpoint (absolute or relative to the page).
func (r *Recorder) PageHandler(title, streamPath string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		dashTmpl.Execute(w, map[string]string{ //nolint:errcheck // connection owns delivery
			"Title":  title,
			"Stream": streamPath,
		})
	})
}

var dashTmpl = template.Must(template.New("dash").Parse(`<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
  :root { color-scheme: dark; }
  body { background:#101418; color:#d8dee6; font:14px/1.4 ui-monospace,Menlo,Consolas,monospace; margin:24px; }
  h1 { font-size:16px; font-weight:600; margin:0 0 4px; }
  .sub { color:#7b8794; margin-bottom:20px; }
  .grid { display:grid; grid-template-columns:repeat(auto-fit,minmax(320px,1fr)); gap:16px; }
  .panel { background:#161c22; border:1px solid #242c35; border-radius:8px; padding:12px 14px; }
  .panel h2 { font-size:12px; font-weight:600; letter-spacing:.04em; text-transform:uppercase; color:#9aa7b4; margin:0 0 2px; }
  .val { font-size:22px; margin:2px 0 6px; }
  .unit { font-size:12px; color:#7b8794; }
  canvas { width:100%; height:64px; display:block; }
  #status { margin-top:16px; color:#7b8794; font-size:12px; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<div class="sub">flight recorder &middot; live samples over SSE &middot; no external assets</div>
<div class="grid" id="grid"></div>
<div id="status">waiting for samples&hellip;</div>
<script>
"use strict";
// Each panel extracts one scalar per sample; missing metrics render as
// gaps so the page works against any registry contents.
const PANELS = [
  { key: "xform",   title: "transform latency p90", unit: "ms",
    get: s => { const h = (s.histograms||{})["server.transform_seconds"];
                return h && h.delta > 0 ? h.p90 * 1000 : null; } },
  { key: "pool",    title: "pool occupancy", unit: "workers",
    get: s => { const g = (s.gauges||{})["server.pool_occupancy"];
                return g ? g.value : null; } },
  { key: "cache",   title: "cache hit rate", unit: "%",
    get: s => { const c = s.counters||{};
                const h = c["server.cache.hits"], m = c["server.cache.misses"];
                if (!h && !m) return null;
                const d = (h?h.delta:0) + (m?m.delta:0);
                return d > 0 ? 100*(h?h.delta:0)/d : null; } },
  { key: "downlink", title: "downlink utilization", unit: "% of observed frames",
    get: s => { const h = (s.histograms||{})["sim.downlink_utilization"];
                return h && h.delta > 0 ? h.mean * 100 : null; } },
  { key: "reqs",    title: "request rate", unit: "req/s",
    get: s => { const c = s.counters||{};
                const t = c["server.http.requests_total"];
                if (t) return t.rate;
                let r = null;
                for (const k in c) if (k.startsWith("server.http.requests/"))
                  r = (r||0) + c[k].rate;
                return r; } },
  { key: "events",  title: "mission event rate", unit: "events/s",
    get: s => { const c = s.counters||{};
                let r = null;
                for (const k in c) if (k.startsWith("sim.events."))
                  r = (r||0) + c[k].rate;
                return r; } },
  { key: "drain",   title: "deferral drain delivered", unit: "Gbit/s",
    get: s => { const d = (s.counters||{})["sim.drain.delivered_bits"];
                return d ? d.rate / 1e9 : null; } },
  { key: "admit",   title: "admission rejects", unit: "429/s (all tenants)",
    get: s => { const c = s.counters||{};
                let r = null;
                for (const k in c)
                  if (k.startsWith("server.tenant.") && k.endsWith(".rejected"))
                    r = (r||0) + c[k].rate;
                return r; } },
  { key: "tenantq", title: "tenant queue depth", unit: "waiters (all tenants)",
    get: s => { const g = s.gauges||{};
                let d = null;
                for (const k in g)
                  if (k.startsWith("server.tenant.") && k.endsWith(".queue_depth"))
                    d = (d||0) + g[k].value;
                return d; } },
  { key: "slo",     title: "slo worst state", unit: "0 ok · 1 warn · 2 page",
    get: s => { const g = s.gauges||{};
                let worst = null;
                for (const k in g)
                  if (k.startsWith("server.slo.") && k.endsWith(".state"))
                    worst = Math.max(worst === null ? 0 : worst, g[k].value);
                return worst; } },
];
const MAXPTS = 300, series = {}, latest = {};
const grid = document.getElementById("grid");
for (const p of PANELS) {
  series[p.key] = [];
  const el = document.createElement("div");
  el.className = "panel";
  el.innerHTML = '<h2>'+p.title+'</h2><div class="val" id="v-'+p.key+'">&ndash;</div>'+
                 '<canvas id="c-'+p.key+'" width="600" height="128"></canvas>'+
                 '<div class="unit">'+p.unit+'</div>';
  grid.appendChild(el);
}
function draw(key) {
  const c = document.getElementById("c-"+key), ctx = c.getContext("2d");
  const pts = series[key];
  ctx.clearRect(0,0,c.width,c.height);
  const vals = pts.filter(v => v !== null);
  if (!vals.length) return;
  const max = Math.max(...vals, 1e-9), min = Math.min(...vals, 0);
  const span = (max - min) || 1;
  ctx.strokeStyle = "#5ec8e5"; ctx.lineWidth = 2; ctx.beginPath();
  let started = false;
  pts.forEach((v,i) => {
    if (v === null) { started = false; return; }
    const x = i/(MAXPTS-1)*c.width;
    const y = c.height - 6 - (v - min)/span*(c.height-12);
    if (!started) { ctx.moveTo(x,y); started = true; } else ctx.lineTo(x,y);
  });
  ctx.stroke();
}
let samples = 0, lastWall = 0;
const es = new EventSource({{.Stream}});
es.addEventListener("sample", ev => {
  const s = JSON.parse(ev.data);
  if (s.wallMs <= lastWall) return; // history replays on reconnect
  lastWall = s.wallMs; samples++;
  for (const p of PANELS) {
    const v = p.get(s);
    const pts = series[p.key];
    pts.push(v);
    if (pts.length > MAXPTS) pts.shift();
    if (v !== null) latest[p.key] = v;
    const el = document.getElementById("v-"+p.key);
    el.textContent = latest[p.key] === undefined ? "–" :
      (Math.abs(latest[p.key]) >= 100 ? latest[p.key].toFixed(0) : latest[p.key].toFixed(2));
    draw(p.key);
  }
  document.getElementById("status").textContent =
    samples + " samples · last " + new Date(s.wallMs).toISOString() +
    " · interval " + s.durMs + "ms";
});
es.onerror = () => { document.getElementById("status").textContent = "stream disconnected – retrying…"; };
</script>
</body>
</html>
`))
