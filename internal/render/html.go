package render

import (
	"encoding/json"
	"fmt"
	"strings"

	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/slog"
)

// ViewerHTML builds a self-contained interactive HTML page from an SLOG
// file — the repository's stand-in for the Jumpshot session of the
// paper's Figure 7: a whole-run preview histogram on top (one stacked
// bar per time bin), and below it a time-space diagram of the selected
// frame, navigated by clicking preview bins or the prev/next controls.
// All frame data is embedded in the page; no server is needed.
func ViewerHTML(sf *slog.File) (string, error) {
	type jsRec struct {
		T  string  `json:"t"`  // state name
		B  uint8   `json:"b"`  // bebits
		S  float64 `json:"s"`  // start, seconds
		D  float64 `json:"d"`  // duration, seconds
		N  uint16  `json:"n"`  // node
		Th uint16  `json:"th"` // thread
		C  uint16  `json:"c"`  // cpu
		P  bool    `json:"p"`  // pseudo record
	}
	type jsArrow struct {
		S   float64 `json:"s"` // send time, seconds
		R   float64 `json:"r"` // recv time, seconds
		SN  uint16  `json:"sn"`
		STh uint16  `json:"st"`
		DN  uint16  `json:"dn"`
		DTh uint16  `json:"dt"`
		B   uint64  `json:"b"` // bytes
	}
	type jsFrame struct {
		Start  float64   `json:"start"`
		End    float64   `json:"end"`
		Recs   []jsRec   `json:"recs"`
		Arrows []jsArrow `json:"arrows"`
	}
	type jsThread struct {
		Node uint16 `json:"node"`
		LTID uint16 `json:"ltid"`
		Task int32  `json:"task"`
		Kind string `json:"kind"`
	}
	type jsDoc struct {
		TStart   float64     `json:"tstart"`
		TEnd     float64     `json:"tend"`
		States   []string    `json:"states"`
		Preview  [][]float64 `json:"preview"`  // [state][bin] seconds
		BinStart []float64   `json:"binstart"` // [bin] seconds, from the bin ruler
		Threads  []jsThread  `json:"threads"`
		Frames   []jsFrame   `json:"frames"`
	}

	doc := jsDoc{
		TStart: sf.TStart.Seconds(),
		TEnd:   sf.TEnd.Seconds(),
	}
	for _, ty := range sf.Preview.States {
		doc.States = append(doc.States, ty.Name())
	}
	for _, row := range sf.Preview.Dur {
		sec := make([]float64, len(row))
		for i, d := range row {
			sec[i] = d.Seconds()
		}
		doc.Preview = append(doc.Preview, sec)
	}
	for b := 0; b < sf.Bins; b++ {
		doc.BinStart = append(doc.BinStart, interval.BinEdge(sf.TStart, sf.TEnd, sf.Bins, b).Seconds())
	}
	for _, te := range sf.Threads {
		doc.Threads = append(doc.Threads, jsThread{
			Node: te.Node, LTID: te.LTID, Task: te.Task,
			Kind: events.ThreadTypeName(int(te.Type)),
		})
	}
	for i := range sf.Index {
		fd, err := sf.ReadFrame(i)
		if err != nil {
			return "", err
		}
		jf := jsFrame{Start: sf.Index[i].Start.Seconds(), End: sf.Index[i].End.Seconds()}
		add := func(rs []interval.Record, pseudo bool) {
			for _, r := range rs {
				jf.Recs = append(jf.Recs, jsRec{
					T: r.Type.Name(), B: uint8(r.Bebits), S: r.Start.Seconds(), D: r.Dura.Seconds(),
					N: r.Node, Th: r.Thread, C: r.CPU, P: pseudo,
				})
			}
		}
		add(fd.Intervals, false)
		add(fd.Pseudo, true)
		for _, a := range append(append([]slog.Arrow{}, fd.Arrows...), fd.Crossing...) {
			jf.Arrows = append(jf.Arrows, jsArrow{
				S: a.SendTime.Seconds(), R: a.RecvTime.Seconds(),
				SN: a.SrcNode, STh: a.SrcThread, DN: a.DstNode, DTh: a.DstThread,
				B: a.Bytes,
			})
		}
		doc.Frames = append(doc.Frames, jf)
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(viewerHTMLHead)
	fmt.Fprintf(&b, "<script>const DATA = %s;\n%s</script></body></html>\n", blob, viewerHTMLScript)
	return b.String(), nil
}

const viewerHTMLHead = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>tracefw viewer</title>
<style>
body { font-family: monospace; font-size: 12px; margin: 12px; background: #fafafa; }
h1 { font-size: 14px; }
#preview { display: flex; align-items: flex-end; height: 120px; border-bottom: 1px solid #888; margin-bottom: 4px; }
#preview .bin { flex: 1; display: flex; flex-direction: column-reverse; cursor: pointer; margin-right: 1px; }
#preview .bin:hover { outline: 1px solid #333; }
#controls { margin: 8px 0; }
#controls button { font-family: monospace; margin-right: 6px; }
#frameinfo { color: #555; }
#timeline { position: relative; border: 1px solid #ccc; background: #fff; }
.row { position: relative; height: 18px; border-bottom: 1px solid #f0f0f0; }
.rowlabel { position: absolute; left: 2px; top: 2px; color: #777; z-index: 2; pointer-events: none; }
.seg { position: absolute; top: 2px; height: 14px; }
.seg.pseudo { opacity: 0.45; border: 1px dashed #333; }
#legend span { display: inline-block; margin-right: 10px; }
#legend i { display: inline-block; width: 10px; height: 10px; margin-right: 3px; }
svg.arrows { position: absolute; left: 0; top: 0; pointer-events: none; }
</style></head><body>
<h1>tracefw viewer — preview + frame display (Jumpshot stand-in)</h1>
<div id="preview"></div>
<div id="controls">
  <button id="prev">&#9664; prev frame</button>
  <button id="next">next frame &#9654;</button>
  <span id="frameinfo"></span>
</div>
<div id="timeline"></div>
<div id="legend"></div>
`

const viewerHTMLScript = `
const palette = ["#4e79a7","#f28e2b","#e15759","#76b7b2","#59a14f","#edc948",
  "#b07aa1","#ff9da7","#9c755f","#bab0ac","#1f77b4","#d62728","#2ca02c",
  "#9467bd","#8c564b","#e377c2","#7f7f7f","#bcbd22"];
const stateColor = {};
DATA.states.forEach((s, i) => stateColor[s] = palette[i % palette.length]);

let current = 0;

function findFrame(t) {
  for (let i = 0; i < DATA.frames.length; i++) {
    if (DATA.frames[i].end >= t) return i;
  }
  return DATA.frames.length - 1;
}

function buildPreview() {
  const el = document.getElementById("preview");
  const bins = DATA.preview[0] ? DATA.preview[0].length : 0;
  let peak = 0;
  const totals = [];
  for (let b = 0; b < bins; b++) {
    let tot = 0;
    for (let s = 0; s < DATA.states.length; s++) tot += DATA.preview[s][b];
    totals.push(tot);
    peak = Math.max(peak, tot);
  }
  for (let b = 0; b < bins; b++) {
    const bin = document.createElement("div");
    bin.className = "bin";
    const t0 = DATA.binstart[b];
    bin.title = t0.toFixed(3) + "s";
    for (let s = 0; s < DATA.states.length; s++) {
      const d = DATA.preview[s][b];
      if (d <= 0) continue;
      const seg = document.createElement("div");
      seg.style.height = (d / (peak || 1) * 110) + "px";
      seg.style.background = stateColor[DATA.states[s]];
      bin.appendChild(seg);
    }
    bin.onclick = () => show(findFrame(t0));
    el.appendChild(bin);
  }
}

function rowKeyList(frame) {
  const keys = new Set();
  DATA.threads.forEach(t => keys.add(t.node + "/" + t.ltid));
  frame.recs.forEach(r => keys.add(r.n + "/" + r.th));
  return [...keys].sort((a, b) => {
    const [an, at] = a.split("/").map(Number), [bn, bt] = b.split("/").map(Number);
    return an - bn || at - bt;
  });
}

function show(i) {
  current = Math.max(0, Math.min(DATA.frames.length - 1, i));
  const f = DATA.frames[current];
  document.getElementById("frameinfo").textContent =
    "frame " + current + " / " + (DATA.frames.length - 1) +
    "  [" + f.start.toFixed(4) + "s .. " + f.end.toFixed(4) + "s]  " +
    f.recs.length + " records, " + f.arrows.length + " arrows";
  const tl = document.getElementById("timeline");
  tl.innerHTML = "";
  const rows = rowKeyList(f);
  const rowIdx = {};
  rows.forEach((k, idx) => rowIdx[k] = idx);
  const span = Math.max(f.end - f.start, 1e-9);
  const width = tl.clientWidth || 900;
  rows.forEach(k => {
    const row = document.createElement("div");
    row.className = "row";
    const lbl = document.createElement("span");
    lbl.className = "rowlabel";
    lbl.textContent = "n" + k.replace("/", "/t");
    row.appendChild(lbl);
    tl.appendChild(row);
  });
  f.recs.forEach(r => {
    const idx = rowIdx[r.n + "/" + r.th];
    if (idx === undefined) return;
    const seg = document.createElement("div");
    seg.className = "seg" + (r.p ? " pseudo" : "");
    const x = (Math.max(r.s, f.start) - f.start) / span * width;
    const w = Math.max(r.d / span * width, 1.5);
    seg.style.left = x + "px";
    seg.style.width = w + "px";
    seg.style.background = stateColor[r.t] || "#ccc";
    seg.title = r.t + (r.p ? " (pseudo)" : "") + "  [" + r.s.toFixed(6) + "s +" + r.d.toFixed(6) + "s]  cpu" + r.c;
    tl.children[idx].appendChild(seg);
  });
  // Arrows as one SVG overlay.
  const svgNS = "http://www.w3.org/2000/svg";
  const svg = document.createElementNS(svgNS, "svg");
  svg.setAttribute("class", "arrows");
  svg.setAttribute("width", width);
  svg.setAttribute("height", rows.length * 19);
  f.arrows.forEach(a => {
    const fi = rowIdx[a.sn + "/" + a.st], ti = rowIdx[a.dn + "/" + a.dt];
    if (fi === undefined || ti === undefined) return;
    const line = document.createElementNS(svgNS, "line");
    line.setAttribute("x1", (Math.max(a.s, f.start) - f.start) / span * width);
    line.setAttribute("y1", fi * 19 + 9);
    line.setAttribute("x2", (Math.min(a.r, f.end) - f.start) / span * width);
    line.setAttribute("y2", ti * 19 + 9);
    line.setAttribute("stroke", "#000");
    line.setAttribute("stroke-width", "0.8");
    svg.appendChild(line);
  });
  tl.appendChild(svg);
  const legend = document.getElementById("legend");
  legend.innerHTML = "";
  const used = new Set(f.recs.map(r => r.t));
  [...used].sort().forEach(sname => {
    const sp = document.createElement("span");
    const sw = document.createElement("i");
    sw.style.background = stateColor[sname];
    sp.appendChild(sw);
    sp.appendChild(document.createTextNode(sname));
    legend.appendChild(sp);
  });
}

document.getElementById("prev").onclick = () => show(current - 1);
document.getElementById("next").onclick = () => show(current + 1);
buildPreview();
show(0);
`
