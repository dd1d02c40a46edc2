// spsd dashboard glue: tabs, live job table, job detail with NDJSON
// stream + telemetry charts, scenario composer, server panel. Pure
// view layer — every number rendered here came out of /api/v1.

import * as api from "./api.js";
import * as chart from "./chart.js";
import { SCHEMAS, buildSpec } from "./composer.js";

const $ = (sel) => document.querySelector(sel);

// ---- tabs ------------------------------------------------------------

for (const btn of document.querySelectorAll("nav button")) {
  btn.addEventListener("click", () => {
    document.querySelectorAll("nav button").forEach((b) => b.classList.remove("active"));
    document.querySelectorAll(".tab").forEach((t) => t.classList.remove("active"));
    btn.classList.add("active");
    $("#tab-" + btn.dataset.tab).classList.add("active");
    if (btn.dataset.tab === "server") refreshServer();
    if (btn.dataset.tab === "fleet") refreshFleet();
  });
}

// ---- health ----------------------------------------------------------

async function refreshHealth() {
  const el = $("#health");
  try {
    const h = await api.health();
    el.textContent = h.status + " · " + h.jobs + " jobs";
    el.className = "health" + (h.draining ? " draining" : "");
  } catch {
    el.textContent = "unreachable";
    el.className = "health down";
  }
}

// ---- job table -------------------------------------------------------

const page = { offset: 0, limit: 25, total: 0 };

async function refreshJobs() {
  try {
    const list = await api.listJobs({
      state: $("#filter-state").value,
      kind: $("#filter-kind").value,
      offset: page.offset,
      limit: page.limit,
    });
    page.total = list.total;
    $("#job-count").textContent =
      list.total + " jobs · showing " + list.jobs.length + " from " + list.offset;
    $("#page-prev").disabled = page.offset <= 0;
    $("#page-next").disabled = page.offset + page.limit >= list.total;
    const tbody = $("#job-table tbody");
    tbody.replaceChildren(
      ...list.jobs.map((j) => {
        const tr = document.createElement("tr");
        tr.className = "selectable";
        tr.innerHTML = `
          <td>${j.id}</td>
          <td>${j.kind}</td>
          <td><span class="state ${j.state}">${j.state}</span></td>
          <td>${j.units_done}/${j.units_total}</td>
          <td>${j.submitted ? j.submitted.replace("T", " ").slice(0, 19) : ""}</td>
          <td class="muted">${artifacts(j)}</td>
          <td class="muted">${j.error || ""}</td>`;
        tr.addEventListener("click", () => openDetail(j.id));
        return tr;
      }),
    );
  } catch (err) {
    $("#job-count").textContent = String(err);
  }
}

function artifacts(j) {
  const a = [];
  if (j.has_result) a.push("result");
  if (j.series_points && j.series_points.length) a.push("series×" + j.series_points.length);
  if (j.has_trace) a.push("trace");
  return a.join(" ");
}

$("#refresh-jobs").addEventListener("click", refreshJobs);
$("#filter-state").addEventListener("change", () => { page.offset = 0; refreshJobs(); });
$("#filter-kind").addEventListener("change", () => { page.offset = 0; refreshJobs(); });
$("#page-prev").addEventListener("click", () => { page.offset = Math.max(0, page.offset - page.limit); refreshJobs(); });
$("#page-next").addEventListener("click", () => { page.offset += page.limit; refreshJobs(); });

// ---- job detail ------------------------------------------------------

const detail = {
  id: null,
  abort: null, // stream abort fn
  names: [], // probe names from the probes event
  samples: new Map(), // point -> [[t_ps, values], ...]
  logLines: 0,
};

async function openDetail(id) {
  if (detail.abort) detail.abort();
  detail.id = id;
  detail.names = [];
  detail.samples = new Map();
  detail.logLines = 0;
  $("#job-detail").classList.remove("hidden");
  $("#detail-title").textContent = id;
  $("#stream-log").textContent = "";
  try {
    const d = await api.jobDetail(id);
    $("#detail-spec").textContent = JSON.stringify(d.spec, null, 2);
    $("#detail-result").disabled = !d.has_result;
    $("#detail-trace").disabled = !d.has_trace;
  } catch (err) {
    $("#detail-spec").textContent = String(err);
  }
  follow();
}

function follow() {
  if (detail.abort) detail.abort();
  const id = detail.id;
  detail.abort = api.followStream(id, (ev) => {
    if (ev.event === "probes") detail.names = ev.names;
    if (ev.event === "sample") {
      const pt = ev.point || 0;
      if (!detail.samples.has(pt)) detail.samples.set(pt, []);
      detail.samples.get(pt).push([ev.t_ps, ev.values]);
      if (detail.samples.get(pt).length % 16 === 0) redraw();
      return; // samples are charted, not logged
    }
    appendLog(JSON.stringify(ev));
    if (ev.event === "state" && (ev.state === "done" || ev.state === "failed")) {
      api.jobDetail(id).then((d) => {
        $("#detail-result").disabled = !d.has_result;
        $("#detail-trace").disabled = !d.has_trace;
      }).catch(() => {});
    }
  }, () => redraw());
}

function appendLog(line) {
  const log = $("#stream-log");
  if (detail.logLines++ > 500) return; // keep the DOM bounded
  log.textContent += line + "\n";
  log.scrollTop = log.scrollHeight;
}

$("#detail-follow").addEventListener("click", () => {
  detail.samples = new Map();
  $("#stream-log").textContent = "";
  detail.logLines = 0;
  follow();
});
$("#detail-result").addEventListener("click", () => window.open(api.resultURL(detail.id)));
$("#detail-trace").addEventListener("click", () => {
  // One click: the endpoint sets Content-Disposition, the browser
  // downloads a Perfetto-openable trace JSON.
  window.location.href = api.traceURL(detail.id);
});
$("#detail-cancel").addEventListener("click", async () => {
  try {
    await api.cancelJob(detail.id);
    refreshJobs();
  } catch (err) {
    appendLog("cancel: " + err);
  }
});

// ---- chart -----------------------------------------------------------

// Presets map probe names to chart series. sum() collapses per-port
// columns into one line so a 16-port switch charts as one curve.
const PRESETS = {
  queue: (names) => [
    { name: "Σ input fifo batches", cols: match(names, /fifo_batches$/), agg: "sum" },
    { name: "Σ tail frames", cols: match(names, /tail_frames$/), agg: "sum" },
    { name: "Σ hbm frames", cols: match(names, /hbm_frames$/), agg: "sum" },
  ],
  hbm: (names) => match(names, /hbm\.util$/).map((c) => ({ name: names[c], cols: [c] })),
  split: (names) => match(names, /split\./).map((c) => ({ name: names[c], cols: [c] })),
  arch: (names) => match(names, /^arch\./).map((c) => ({ name: names[c], cols: [c] })),
  core: (names) => match(names, /^core\./).map((c) => ({ name: names[c], cols: [c] })),
  resil: (names) =>
    match(names, /^(availability|capacity_fraction)$/).map((c) => ({ name: names[c], cols: [c] })),
};

function match(names, re) {
  const out = [];
  names.forEach((n, i) => { if (re.test(n)) out.push(i); });
  return out;
}

function redraw() {
  const preset = PRESETS[$("#chart-preset").value](detail.names);
  const point = Number($("#chart-point").value) || 0;
  const rows = detail.samples.get(point) || [];
  const series = preset
    .filter((s) => s.cols.length)
    .map((s) => ({
      name: s.name,
      points: rows.map(([t, values]) => [
        t,
        s.agg === "sum"
          ? s.cols.reduce((acc, c) => acc + (values[c] || 0), 0)
          : values[s.cols[0]] || 0,
      ]),
    }));
  const legend = chart.draw($("#chart"), series);
  $("#chart-legend").replaceChildren(
    ...legend.map((l) => {
      const span = document.createElement("span");
      span.style.color = l.color;
      span.textContent = l.name;
      return span;
    }),
  );
}

$("#chart-preset").addEventListener("change", redraw);
$("#chart-point").addEventListener("change", redraw);

// ---- composer --------------------------------------------------------

function renderComposer() {
  const kind = $("#compose-kind").value;
  const form = $("#compose-form");
  form.replaceChildren(
    ...SCHEMAS[kind].map((f) => {
      const label = document.createElement("label");
      label.append(f.label);
      let input;
      if (f.type === "select") {
        input = document.createElement("select");
        for (const opt of f.options) {
          const o = document.createElement("option");
          o.value = o.textContent = opt;
          input.append(o);
        }
        input.value = f.def;
      } else if (f.type === "bool") {
        input = document.createElement("input");
        input.type = "checkbox";
        input.checked = f.def;
      } else {
        input = document.createElement("input");
        input.type = "number";
        input.step = f.step;
        input.value = f.def;
      }
      input.name = f.key;
      input.addEventListener("input", previewSpec);
      input.addEventListener("change", previewSpec);
      label.append(input);
      return label;
    }),
  );
  previewSpec();
}

function composeValues() {
  const kind = $("#compose-kind").value;
  const values = {};
  for (const f of SCHEMAS[kind]) {
    const input = $("#compose-form [name=" + f.key + "]");
    if (!input) continue;
    values[f.key] = f.type === "bool" ? input.checked : input.value;
    if (f.type === "number") values[f.key] = Number(values[f.key]);
  }
  return values;
}

function previewSpec() {
  const kind = $("#compose-kind").value;
  $("#compose-preview").textContent =
    JSON.stringify(buildSpec(kind, composeValues()), null, 2);
}

$("#compose-kind").addEventListener("change", renderComposer);
$("#compose-submit").addEventListener("click", async () => {
  const kind = $("#compose-kind").value;
  const status = $("#compose-status");
  try {
    const st = await api.submitJob(buildSpec(kind, composeValues()));
    status.textContent = "submitted " + st.id;
    refreshJobs();
  } catch (err) {
    status.textContent = String(err);
  }
});

// ---- server panel ----------------------------------------------------

function kvTable(el, obj, keys) {
  el.replaceChildren(
    ...keys.map(([label, fmt]) => {
      const tr = document.createElement("tr");
      tr.innerHTML = `<td>${label}</td><td>${fmt(obj)}</td>`;
      return tr;
    }),
  );
}

async function refreshServer() {
  try {
    const [info, queue] = await Promise.all([api.serverInfo(), api.queueInfo()]);
    kvTable($("#server-info"), info, [
      ["service", (i) => i.service + " " + i.version],
      ["go", (i) => i.go_version],
      ["uptime", (i) => i.uptime_seconds.toFixed(0) + " s"],
      ["draining", (i) => i.draining],
      ["workers", (i) => i.workers],
      ["job parallelism", (i) => i.job_parallelism || "per-CPU"],
      ["checkpointing", (i) => i.checkpointing],
    ]);
    kvTable($("#queue-info"), queue, [
      ["depth / capacity", (q) => q.depth + " / " + q.capacity],
      ["running", (q) => q.running.join(" ") || "—"],
      ["queued", (q) => q.queued.join(" ") || "—"],
    ]);
    kvTable($("#geometry-info"), info.geometry, [
      ["ribbons × fibers", (g) => g.ribbons + " × " + g.fibers],
      ["HBM switches", (g) => g.switches],
      ["WDM", (g) => g.wavelengths + " × " + g.channel_gbps + " Gb/s"],
      ["switch port rate", (g) => g.port_gbps + " Gb/s"],
      ["HBM stacks / switch", (g) => g.stacks],
      ["package ingress", (g) => g.package_tbps.toFixed(2) + " Tb/s"],
    ]);
    const pool = (p) => p.gets + " gets · " + pct(p.hits, p.gets) + " hit · " + p.grows + " grows";
    kvTable($("#core-info"), info.core, [
      ["runs / events", (c) => c.runs + " / " + c.events],
      ["wheel cascades", (c) => c.wheel_cascades + " (" + c.wheel_cascade_events + " events)"],
      ["wheel overflow", (c) => c.wheel_overflowed],
      ["packet pool", (c) => pool(c.packet_pool)],
      ["batch pool", (c) => pool(c.batch_pool)],
      ["frame pool", (c) => pool(c.frame_pool)],
      ["barrier epochs", (c) => c.barrier_epochs],
      ["barrier wait", (c) => (c.barrier_wait_ns / 1e6).toFixed(1) + " ms"],
    ]);
  } catch (err) {
    $("#server-info").innerHTML = `<tr><td>error</td><td>${err}</td></tr>`;
  }
}

function pct(a, b) {
  return b ? ((100 * a) / b).toFixed(1) + "%" : "0%";
}

// ---- fleet panel -----------------------------------------------------

// refreshFleet renders the spsfleet coordinator's /fleet report, which
// the daemon proxies at /api/v1/fleet when started with -fleet URL.
async function refreshFleet() {
  const status = $("#fleet-status");
  try {
    const f = await api.fleetInfo();
    status.textContent = "";
    const info = f.fleet || {};
    kvTable($("#fleet-info"), info, [
      ["service", (i) => i.service || "spsfleet"],
      ["scheduler", (i) => i.scheduler || ""],
      ["draining", (i) => Boolean(i.draining)],
      ["uptime", (i) => (i.uptime_seconds || 0).toFixed(0) + " s"],
      ["unit retries", (i) => i.unit_retries || 0],
      ["duplicate units", (i) => i.duplicate_units || 0],
    ]);
    const tbody = $("#fleet-backends tbody");
    tbody.replaceChildren(
      ...(info.backends || []).map((b) => {
        const tr = document.createElement("tr");
        tr.innerHTML = `
          <td>${b.url}</td>
          <td><span class="state ${b.alive ? "done" : "failed"}">${b.alive ? "up" : "down"}</span></td>
          <td>${b.inflight || 0}</td>
          <td>${((b.latency_ewma_seconds || 0) * 1000).toFixed(1)} ms</td>
          <td>${b.picks || 0}</td>
          <td>${b.units_ok || 0}</td>
          <td>${b.units_err || 0}</td>`;
        return tr;
      }),
    );
    $("#fleet-metrics").textContent = (f.metrics || []).join("\n") || "—";
  } catch (err) {
    status.textContent = String(err);
    $("#fleet-info").replaceChildren();
    $("#fleet-backends tbody").replaceChildren();
    $("#fleet-metrics").textContent = "—";
  }
}

// ---- boot ------------------------------------------------------------

renderComposer();
refreshHealth();
refreshJobs();
setInterval(refreshHealth, 5000);
setInterval(() => {
  if ($("#tab-jobs").classList.contains("active")) refreshJobs();
  if ($("#tab-server").classList.contains("active")) refreshServer();
  if ($("#tab-fleet").classList.contains("active")) refreshFleet();
}, 3000);
