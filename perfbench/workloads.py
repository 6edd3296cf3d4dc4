"""The four workloads. Each is a closed loop with a single client: the next
line, process or harness step starts only when the previous one returned.

Every workload fills a ``Run``: the end-to-end metrics (untraced runs),
the per-layer metrics (traced runs), the traffic facts and the count of
operations attempted and failed. An operation fails when it raises
anything but a ``DataError`` or when its output disagrees with the
expected outcome.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import reference
import speed
from tracing import Tracer, grouped_tail, median, tail

SETUP_RUNS = 11
VERSE_CHUNK = 1000
# Samples per tail group: a group of n has its tail at 1 - 10/n, and
# call_tail_ms is the median over whole groups. site_heavy takes four rounds
# a group, so its tail is always the 11th slowest of 16 heavy lines (13-16
# sites); cli_novel takes the run as one group.
TAIL_GROUP = {"verse": VERSE_CHUNK, "site_heavy": 4 * sum(inputs.ROUND_QUOTA.values()),
              "cli_novel": 10**9, "harness": 100}
CHILD_TIMEOUT_S = 60
SEGMENT_S = 0.05  # longest span timed between two host-speed kernels
VERSE_WARMUP = 300
HARNESS_LINES = 3000
HARNESS_SPLIT_SEED = 13
EXACT_MATCH_BAND = (5.0, 20.0)
BUCKET_NAMES = [name for name, _, _ in inputs.BUCKETS]


@dataclass
class Run:
    root: Path
    workload: str
    seed: int
    seconds: float
    traced: bool
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    report: dict = field(default_factory=dict)   # figures without a bound
    facts: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    clock: speed.Clock = field(default_factory=speed.Clock)
    # fresh processes are timed against the start of a bare interpreter
    process_clock: speed.Clock = field(default_factory=lambda: speed.Clock(
        speed.process_kernel_seconds, speed.PROCESS_REFERENCE_S))

    @property
    def work(self) -> Path:
        return self.root / ".perfbench" / f"work-{self.workload}-{self.seed}"

    def env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def outcome(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


def well_formed(pattern: str) -> bool:
    return (len(pattern) == 11 and set(pattern) <= {"+", "-"}
            and "+" in pattern)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- fresh processes -----------------------------------------------------------

def _child(run: Run, argv: list[str]):
    """Start a child with escansion importable from the checkout."""
    return subprocess.Popen(argv, cwd=run.root, env=run.env(),
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _reap(proc) -> tuple[int, bytes]:
    """Drain and wait for ``proc``: (exit code, stderr)."""
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    return proc.wait(), err


def _timed_child(run: Run, argv: list[str]) -> tuple[float, float]:
    """Seconds from spawn to the child's 'ready' line and to its 'first'
    line; the child prints them when set up and after its first record."""
    start = time.perf_counter()
    proc = _child(run, argv)
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter() - start
        first = proc.stdout.readline()
        t_first = time.perf_counter() - start
    finally:
        code, err = _reap(proc)
    if code != 0 or ready.strip() != b"ready" or first.strip() != b"first":
        raise RuntimeError(f"set-up child failed ({code}): {err.decode()[-500:]}")
    factor = run.process_clock.factor()
    return t_ready * factor, t_first * factor


_SCAN_CHILD = """\
import sys
import escansion
from escansion.errors import DataError
lexicon = escansion.default_lexicon()
print("ready", flush=True)
try:
    escansion.scan_line(sys.argv[1], lexicon)
except DataError:
    pass
print("first", flush=True)
"""

_HARNESS_CHILD = """\
import sys
from escansion import baseline, corpus, metrics
print("ready", flush=True)
baseline.predict(baseline.load_model(sys.argv[1]), sys.argv[2])
print("first", flush=True)
"""


# A child's ru_maxrss counts its parent's pages from before exec, so the
# child reports the peak of its own image, VmHWM, on its last stderr line.
_REPORT_PEAK = """
with open("/proc/self/status") as status:
    print(next(row for row in status if row.startswith("VmHWM")).strip(),
          file=sys.stderr)
"""

_SCAN_FILE_CHILD = """\
import sys
import escansion
from escansion.errors import DataError
lexicon = escansion.default_lexicon()
with open(sys.argv[1], encoding="utf-8") as lines:
    for line in lines:
        try:
            escansion.scan_line(line.rstrip("\\n"), lexicon)
        except DataError:
            pass
""" + _REPORT_PEAK

# `python -m escansion scan FILE`, through the same runpy entry as -m
_CLI_CHILD = """\
import runpy, sys
sys.argv[0] = "escansion"
try:
    runpy.run_module("escansion", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
""" + _REPORT_PEAK


def child_peak_rss(run: Run, code: str, args: list[str]) -> None:
    """peak_rss_mb of a fresh process on a fixed input, so the figure does
    not grow with the lines a fast program gets through."""
    proc = _child(run, [sys.executable, "-c", code, *args])
    proc.stdout.read()
    status, err = _reap(proc)
    rows = err.decode().splitlines()
    if status not in (0, 2) or not rows or not rows[-1].startswith("VmHWM"):
        raise RuntimeError(f"child failed ({status}): {err.decode()[-500:]}")
    run.metrics["peak_rss_mb"] = (int(rows[-1].split()[1]) / 1024.0, "MB")


def _scan_file_rss(run: Run, texts: list[str]) -> None:
    path = run.work / "rss-lines.txt"
    path.write_text("\n".join(texts) + "\n", encoding="utf-8")
    child_peak_rss(run, _SCAN_FILE_CHILD, [str(path)])


def measure_setup(run: Run, code: str, args: list[str]) -> None:
    """setup_s and first_record_s, each the median of fresh processes."""
    times = [_timed_child(run, [sys.executable, "-c", code, *args])
             for _ in range(SETUP_RUNS)]
    run.metrics["setup_s"] = (median([t for t, _ in times]), "s")
    run.metrics["first_record_s"] = (median([f for _, f in times]), "s")


# --- in-process line workloads -------------------------------------------------

def _scan_targets(scansion) -> list:
    """The module globals scan_line calls through, one span each."""
    return [(scansion, "phonological_parse", "phonology.phonological_parse", None, False),
            (scansion, "find_figure_sites", "scansion.find_figure_sites", len, False),
            (scansion, "fit_to_target", "scansion.fit_to_target", None, False)]


def scan_chunks(run: Run, chunks, warmup: list[str]) -> None:
    """Scan chunk after chunk until ``run.seconds`` have passed.

    ``chunks`` yields lists of (text, expected outcome or None). With a
    trace, odd chunks are traced and even ones are not, which gives the
    tracing overhead."""
    from escansion import scansion
    from escansion.errors import DataError, Unfittable
    lexicon, config = scansion.default_lexicon(), scansion.ScanConfig()
    for text in warmup:
        try:
            scansion.scan_line(text, lexicon, config)
        except DataError:
            pass

    tracer = Tracer()
    traced_scan = tracer.wrap("scansion.scan_line", scansion.scan_line,
                              new_trace=True)
    latencies, rates, raw_rates = [], {False: [], True: []}, []
    unfittable = ambiguous = lines = 0
    deadline = time.perf_counter() + run.seconds
    for number, chunk in enumerate(chunks):
        traced = run.traced and number % 2 == 1
        scan = traced_scan if traced else scansion.scan_line
        busy = raw_busy = segment_s = 0.0
        chunk_latencies, segment = [], []
        with tracer.patched(_scan_targets(scansion) if traced else []):
            for position, (text, expected) in enumerate(chunk):
                start = time.perf_counter()
                try:
                    result = scan(text, lexicon, config)
                    got = result.pattern
                except Unfittable as exc:
                    result = None
                    got = "unfittable:" + ",".join(str(n) for n in exc.achievable)
                except DataError as exc:
                    result = None
                    got = "error:" + type(exc).__name__
                except Exception as exc:  # counted as a failed operation
                    result, got = None, f"exception:{exc!r}"
                segment.append(time.perf_counter() - start)
                segment_s += segment[-1]
                if segment_s >= SEGMENT_S or position == len(chunk) - 1:
                    factor = run.clock.factor()
                    chunk_latencies.extend(x * factor for x in segment)
                    raw_busy += segment_s
                    busy += segment_s * factor
                    segment, segment_s = [], 0.0
                if expected is not None:
                    ok = got == expected
                elif result is not None:
                    ok = (well_formed(got)
                          and result.candidate.metrical_length == 11)
                else:
                    ok = got.startswith("unfittable:")
                run.outcome(ok, f"{text!r}: got {got}, expected {expected}")
                unfittable += got.startswith("unfittable:")
                ambiguous += bool(result is not None and result.ambiguous)
                lines += 1
        rates[traced].append(len(chunk) / busy)
        if not traced:
            raw_rates.append(len(chunk) / raw_busy)
            latencies.extend(chunk_latencies)
        if time.perf_counter() >= deadline:
            break

    run.facts.update(lines=lines, unfittable=unfittable, chunks=number + 1)
    if not run.traced:
        p50 = median(latencies) * 1e3
        tails = grouped_tail(latencies, TAIL_GROUP[run.workload])
        tail_ms = tails["value"] * 1e3
        run.metrics["lines_per_s"] = (median(rates[False]), "1/s")
        run.metrics["call_p50_ms"] = (p50, "ms")
        run.metrics["call_tail_ms"] = (tail_ms, "ms")
        run.report.update(line_p50_ms=[p50, "ms"], line_tail_ms=[tail_ms, "ms"],
                          raw_lines_per_s=[median(raw_rates), "1/s"],
                          tail=tails)
    else:
        layer_metrics(run, tracer, lines_traced=len(
            [s for s in tracer.spans if s[0] == "scansion.scan_line"]))
        run.metrics["scansion.unfittable_share"] = (unfittable / max(lines, 1), "share")
        run.metrics["scansion.ambiguous_share"] = (ambiguous / max(lines, 1), "share")
        overhead(run, median(rates[False]), median(rates[True]))
        run.tracer = tracer


def overhead(run: Run, untraced: float, traced: float) -> None:
    run.metrics["trace.lines_per_s_untraced"] = (untraced, "1/s")
    run.metrics["trace.lines_per_s_traced"] = (traced, "1/s")
    run.metrics["trace.overhead_share"] = (
        1.0 - traced / untraced if untraced else 0.0, "share")


def layer_metrics(run: Run, tracer: Tracer, lines_traced: int) -> None:
    """Scansion and phonology figures from the traced lines' spans."""
    summary = tracer.summary()

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def per_line_us(seconds):
        return seconds / lines_traced * 1e6 if lines_traced else 0.0

    parse = self_s("phonology.phonological_parse")
    sites = self_s("scansion.find_figure_sites")
    fit = self_s("scansion.fit_to_target")
    scan_total = summary.get("scansion.scan_line", {}).get("total_s", 0.0)
    m = run.metrics
    m["phonology.parse_us_per_line"] = (per_line_us(parse), "us")
    m["scansion.sites_us_per_line"] = (per_line_us(sites), "us")
    m["scansion.fit_us_per_line"] = (per_line_us(fit), "us")
    m["scansion.scan_line_us_per_line"] = (per_line_us(scan_total), "us")
    m["scansion.unaccounted_share"] = (
        1.0 - (parse + sites + fit) / scan_total if scan_total else 0.0, "share")
    stages = parse + sites + fit
    for key, value in (("parse", parse), ("sites", sites), ("fit", fit)):
        m[f"scansion.share.{key}"] = (value / stages if stages else 0.0, "share")

    site_count, fit_time = {}, {}
    for name, trace_id, _, start, end, note in tracer.spans:
        if name == "scansion.find_figure_sites" and note is not None:
            site_count[trace_id] = note
        elif name == "scansion.fit_to_target":
            fit_time[trace_id] = end - start
    by_bucket = {b: [] for b in BUCKET_NAMES}
    for trace_id, count in site_count.items():
        if trace_id in fit_time:
            by_bucket[inputs.bucket_of(count)].append(fit_time[trace_id] * 1e3)
    for bucket, times in by_bucket.items():
        m[f"scansion.fit_ms.{bucket}.p50"] = (median(times), "ms")
        m[f"scansion.fit_ms.{bucket}.tail"] = (tail(times)[0] if times else 0.0, "ms")
        m[f"scansion.fit_ms.{bucket}.max"] = (max(times, default=0.0), "ms")
        m[f"scansion.lines.{bucket}"] = (len(times) / len(site_count)
                                         if site_count else 0.0, "share")
    m["scansion.sites_per_line"] = (
        sum(site_count.values()) / len(site_count) if site_count else 0.0, "count")


def distinct_word_share(texts) -> float:
    tokens = [word for text in texts for word in text.lower().split()]
    return len(set(tokens)) / len(tokens) if tokens else 0.0


def site_histogram(texts) -> dict:
    """Engine-counted figure sites per bucket, a traffic fact."""
    from escansion import scansion
    from escansion.errors import DataError
    lexicon = scansion.default_lexicon()
    hist = dict.fromkeys(BUCKET_NAMES, 0)
    for text in texts:
        try:
            words = scansion.phonological_parse(text, lexicon)
        except DataError:
            continue
        hist[inputs.bucket_of(len(scansion.find_figure_sites(words)))] += 1
    return hist


def run_verse(run: Run) -> None:
    rng = random.Random(run.seed)
    stream = inputs.verse_stream(run.seed)
    warmup = [text for text, _ in itertools.islice(stream, VERSE_WARMUP)]
    gold = inputs.mini_gold(run.root)
    first = gold + list(itertools.islice(stream, VERSE_CHUNK - len(gold)))
    rng.shuffle(first)

    def chunks():
        yield first
        while True:
            yield list(itertools.islice(stream, VERSE_CHUNK))

    scan_chunks(run, chunks(), warmup)
    sample = [text for text, _ in first]
    run.facts.update(
        inputs_digest=inputs.digest(warmup + sample),
        distinct_word_share=distinct_word_share(sample),
        site_buckets=site_histogram(sample))
    run.metrics.setdefault("phonology.distinct_word_share",
                           (run.facts["distinct_word_share"], "share"))
    if not run.traced:
        measure_setup(run, _SCAN_CHILD, [warmup[0]])
        _scan_file_rss(run, sample)


def _site_heavy_round(table, index: int, rng: random.Random):
    round_ = inputs.site_heavy_round(index)
    outcomes = reference.lookup(table, "site_heavy", index,
                                [text for text, _ in round_])
    lines = [(text, sites, outcomes[i] if outcomes else None)
             for i, (text, sites) in enumerate(round_)]
    rng.shuffle(lines)
    return lines


def run_site_heavy(run: Run) -> None:
    table = reference.load()
    rng = random.Random(run.seed)
    pool = len(table["site_heavy"])
    order = itertools.chain(rng.sample(range(pool), pool), itertools.count(pool))
    warm_round = _site_heavy_round(table, next(order), rng)
    warmup = [text for text, sites, _ in warm_round if sites <= 12]
    light = next(text for text, sites, _ in warm_round if sites <= 4)
    rounds = []

    def chunks():
        for index in order:
            lines = _site_heavy_round(table, index, rng)
            rounds.append(lines)
            yield [(text, expected) for text, _, expected in lines]

    scan_chunks(run, chunks(), warmup)
    timed = [line for lines in rounds for line in lines]
    hist = dict.fromkeys(BUCKET_NAMES, 0)
    for _, sites, _ in timed:
        hist[inputs.bucket_of(sites)] += 1
    sample = [text for text, _, _ in rounds[0]]
    run.facts.update(
        inputs_digest=inputs.digest(warmup + sample),
        rounds=len(rounds),
        distinct_word_share=distinct_word_share(sample),
        site_buckets=hist)
    run.metrics.setdefault("phonology.distinct_word_share",
                           (run.facts["distinct_word_share"], "share"))
    if not run.traced:
        measure_setup(run, _SCAN_CHILD, [light])
        # one fixed round: what a heavy line allocates varies by line
        _scan_file_rss(run, [text for text, _ in inputs.site_heavy_round(0)])


# --- cli_novel -----------------------------------------------------------------

def _check_scan_output(run: Run, texts, outcomes, out: str, code: int) -> tuple[int, int]:
    """One operation per line: the record must hold the expected outcome.
    Returns the unfittable and ambiguous record counts."""
    rows = out.splitlines()
    if len(rows) != len(texts):
        run.outcome(False, f"scan wrote {len(rows)} records for {len(texts)} lines")
        return 0, 0
    errors = ambiguous = 0
    for text, expected, row in zip(texts, outcomes or itertools.repeat(None), rows):
        cols = row.split("\t")
        if len(cols) != 6 or cols[0] != text:
            run.outcome(False, f"malformed record {row!r}")
            continue
        unfit = cols[4].startswith("unfittable:")
        errors += cols[2] == ""
        ambiguous += cols[5] == "1"
        if expected is None:
            ok = unfit or (well_formed(cols[2]) and cols[3] == "11")
        elif expected.startswith("unfittable:"):
            ok = unfit and cols[2] == ""
        else:
            ok = cols[2] == expected and cols[3] == "11"
        run.outcome(ok, f"{text!r}: record {row!r}, expected {expected}")
    run.outcome(code == (2 if errors else 0), f"scan exit code {code}")
    return errors, ambiguous


def _novel_file(run: Run, table, index: int) -> tuple[Path, list[str], list | None]:
    texts = inputs.novel_file(index, reference.CLI_LINES_PER_FILE)
    outcomes = reference.lookup(table, "cli_novel", index, texts)
    path = run.work / f"novel-{index:04d}.txt"
    path.write_text("\n".join(texts) + "\n", encoding="utf-8")
    return path, texts, outcomes


def _scan_process(run: Run, path: Path):
    """One `python -m escansion scan FILE`: (wall, first byte) in reference
    seconds, stdout, exit code. The time to the first byte (the whole run
    on empty input), mostly the start of the interpreter, goes by the
    process clock; the rest, mostly scanning, by the in-process clock."""
    start = time.perf_counter()
    proc = _child(run, [sys.executable, "-m", "escansion", "scan", str(path)])
    try:
        head = proc.stdout.read(1)
        first = time.perf_counter() - start
        body = head + proc.stdout.read()
    finally:
        code, err = _reap(proc)
    wall = time.perf_counter() - start
    if code not in (0, 2):
        run.failures.append(f"scan exited {code}: {err.decode()[-300:]}")
    first_ref = first * run.process_clock.factor()
    return (first_ref + (wall - first) * run.clock.factor(), first_ref,
            body.decode("utf-8"), code)


def run_cli_novel(run: Run) -> None:
    table = reference.load()
    rng = random.Random(run.seed)
    pool = len(table["cli_novel"])
    order = itertools.chain(rng.sample(range(pool), pool), itertools.count(pool))
    warm_path, warm_texts, _ = _novel_file(run, table, next(order))
    files = []
    if run.traced:
        _cli_traced(run, table, order, warm_path, files)
    else:
        empty = run.work / "empty.txt"
        empty.write_text("", encoding="utf-8")
        _scan_process(run, warm_path)
        setup = [_scan_process(run, empty)[0] for _ in range(SETUP_RUNS)]
        walls, firsts = [], []
        deadline = time.perf_counter() + run.seconds
        while time.perf_counter() < deadline:
            path, texts, outcomes = _novel_file(run, table, next(order))
            files.append(texts)
            wall, first, out, code = _scan_process(run, path)
            _check_scan_output(run, texts, outcomes, out, code)
            walls.append(wall)
            firsts.append(first)
        per_file = reference.CLI_LINES_PER_FILE
        tails = grouped_tail(walls, TAIL_GROUP[run.workload])
        run.metrics.update(
            lines_per_s=(median([per_file / w for w in walls]), "1/s"),
            call_p50_ms=(median(walls) * 1e3, "ms"),
            call_tail_ms=(tails["value"] * 1e3, "ms"),
            setup_s=(median(setup), "s"),
            first_record_s=(median(firsts), "s"))
        child_peak_rss(run, _CLI_CHILD, ["scan", str(warm_path)])
        run.report.update(lines_per_process=per_file, tail=tails)
    sample = files[0]
    run.facts.update(
        inputs_digest=inputs.digest(warm_texts + sample),
        lines=sum(len(f) for f in files), processes=len(files),
        distinct_word_share=distinct_word_share(sample),
        site_buckets=site_histogram(sample))
    run.metrics.setdefault("phonology.distinct_word_share",
                           (run.facts["distinct_word_share"], "share"))


_CLI_START_CHILD = """\
import json, time
start = time.perf_counter()
import escansion.cli
imported = time.perf_counter()
escansion.phonology.default_lexicon()
print(json.dumps([imported - start, time.perf_counter() - imported]))
"""


def _cli_traced(run: Run, table, order, warm_path: Path, files: list) -> None:
    """In-process cli.main over the files, every other one traced."""
    from escansion import cli, scansion
    starts = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", _CLI_START_CHILD],
                             cwd=run.root, env=run.env(), capture_output=True,
                             check=True, timeout=CHILD_TIMEOUT_S)
        starts.append(json.loads(out.stdout))
    run.metrics["cli.import_s"] = (median([s[0] for s in starts]), "s")
    run.metrics["cli.lexicon_load_s"] = (median([s[1] for s in starts]), "s")

    out_path = run.work / "out.tsv"
    cli.main(["scan", str(warm_path), "-o", str(out_path)])
    tracer = Tracer()
    targets = [(cli, "scan_line", "scansion.scan_line", None, True)] + _scan_targets(scansion)
    main_traced = tracer.wrap("cli.main", cli.main, new_trace=True)
    rates = {False: [], True: []}
    unfittable = ambiguous = 0
    deadline = time.perf_counter() + run.seconds
    for number in itertools.count():
        path, texts, outcomes = _novel_file(run, table, next(order))
        files.append(texts)
        traced = number % 2 == 1
        start = time.perf_counter()
        with tracer.patched(targets if traced else []):
            code = (main_traced if traced else cli.main)(
                ["scan", str(path), "-o", str(out_path)])
        elapsed = time.perf_counter() - start
        rates[traced].append(len(texts) / (elapsed * run.clock.factor()))
        counts = _check_scan_output(run, texts, outcomes,
                                    out_path.read_text(encoding="utf-8"), code)
        unfittable += counts[0]
        ambiguous += counts[1]
        if time.perf_counter() >= deadline and number >= 1:
            break
    lines = sum(1 for s in tracer.spans if s[0] == "scansion.scan_line")
    layer_metrics(run, tracer, lines)
    scanned = sum(len(f) for f in files)
    run.metrics["scansion.unfittable_share"] = (unfittable / scanned, "share")
    run.metrics["scansion.ambiguous_share"] = (ambiguous / scanned, "share")
    summary = tracer.summary()
    main_s = summary["cli.main"]["total_s"]
    scan_s = summary["scansion.scan_line"]["total_s"]
    run.metrics["cli.format_us_per_line"] = ((main_s - scan_s) / lines * 1e6, "us")
    overhead(run, median(rates[False]), median(rates[True]))
    run.tracer = tracer


# --- harness --------------------------------------------------------------------

def _harness_pass(run: Run, tei: Path, out: Path, rows: int, tracer=None) -> dict:
    """prepare -> train -> predict -> score -> save/load, one pass."""
    from escansion import baseline, corpus, metrics
    config = baseline.TrainConfig(
        epochs=10, embedding_dim=50, learning_rate=0.05, seed=13,
        bucket_count=2000, patience=10)  # patience 10: always 10 epochs
    if tracer is None:
        call = {name: fn for name, fn in (
            ("parse_tei_dir", corpus.parse_tei_dir), ("dedupe", corpus.dedupe_and_clean),
            ("split", corpus.split), ("write_split", corpus.write_split),
            ("read_tsv", corpus.read_tsv), ("train", baseline.train),
            ("predict", baseline.predict), ("score", metrics.score_predictions_file),
            ("save", baseline.save_model), ("load", baseline.load_model))}
    else:
        call = {name: tracer.wrap(span, fn, new_trace=True) for name, span, fn in (
            ("parse_tei_dir", "corpus.parse_tei_dir", corpus.parse_tei_dir),
            ("dedupe", "corpus.dedupe_and_clean", corpus.dedupe_and_clean),
            ("split", "corpus.split", corpus.split),
            ("write_split", "corpus.write_split", corpus.write_split),
            ("read_tsv", "corpus.read_tsv", corpus.read_tsv),
            ("train", "baseline.train", baseline.train),
            ("predict", "baseline.predict", baseline.predict),
            ("score", "metrics.score_predictions_file", metrics.score_predictions_file),
            ("save", "baseline.save_model", baseline.save_model),
            ("load", "baseline.load_model", baseline.load_model))}

    steps = {}  # step -> (raw s, reference s); the kernel runs after each

    def timed(step, start):
        raw = time.perf_counter() - start
        steps[step] = (raw, raw * run.clock.factor())

    start = time.perf_counter()
    lines = call["parse_tei_dir"](tei)
    clean = call["dedupe"](lines)
    parts = call["split"](clean, seed=HARNESS_SPLIT_SEED)
    meta = call["write_split"](parts, out)
    train_set, eval_set, test_set = (call["read_tsv"](out / f"{name}.tsv")
                                     for name in ("train", "eval", "test"))
    timed("prepare", start)
    run.outcome(len(lines) == rows and len(clean) == rows, "prepare lost lines")
    run.outcome((tuple(train_set), tuple(eval_set), tuple(test_set)) == parts.parts()
                and sum(meta["counts"].values()) == rows, "split round trip")

    start = time.perf_counter()
    model = call["train"](train_set, eval_set, config)
    timed("train", start)
    latencies, predictions = [], []
    start = time.perf_counter()
    for line in test_set:
        line_start = time.perf_counter()
        pattern = call["predict"](model, line.text)
        latencies.append(time.perf_counter() - line_start)
        predictions.append(f"{line.poem_id}\t{line.line_no}\t{pattern}\n")
    pred_path = out / "predictions.tsv"
    pred_path.write_text("".join(predictions), encoding="utf-8")
    timed("predict", start)
    for row in predictions:
        pattern = row.rstrip("\n").split("\t")[2]
        run.outcome(well_formed(pattern), f"prediction {pattern!r}")

    start = time.perf_counter()
    report = call["score"](pred_path, test_set)
    timed("score", start)
    lo, hi = EXACT_MATCH_BAND
    run.outcome(report.total == len(test_set) and lo <= report.accuracy <= hi,
                f"test exact match {report.accuracy:.2f} outside [{lo}, {hi}]")
    model_path = out / "model.json"
    start = time.perf_counter()
    call["save"](model, model_path)
    back = call["load"](model_path)
    timed("save_load", start)
    run.outcome(all(baseline.predict(back, ln.text) == baseline.predict(model, ln.text)
                    for ln in test_set[:5]), "model changed on save/load")
    scale = steps["predict"][1] / steps["predict"][0]
    return {"wall": sum(ref for _, ref in steps.values()),
            "raw_wall": sum(raw for raw, _ in steps.values()),
            "prepare": steps["prepare"][1], "train": steps["train"][1],
            "predict": sum(latencies) * scale,
            "latencies": [x * scale for x in latencies],
            "epochs": model.train_meta["epochs_run"], "tests": len(test_set),
            "accuracy": report.accuracy,
            "model": model_path, "first_text": test_set[0].text}


def run_harness(run: Run) -> None:
    run.clock = speed.Clock(speed.step_kernel_seconds, speed.STEP_REFERENCE_S)
    rows = inputs.labelled_corpus(HARNESS_LINES, run.seed)
    tei = run.work / "tei"
    inputs.write_tei(rows, tei)
    texts = [text for _, _, text, _ in rows]
    run.facts.update(inputs_digest=inputs.digest(
        "\t".join(map(str, row)) for row in rows),
        distinct_word_share=distinct_word_share(texts), corpus_lines=len(rows))
    run.metrics["phonology.distinct_word_share"] = (run.facts["distinct_word_share"], "share")

    tracer = Tracer()
    passes = {False: [], True: []}
    deadline = time.perf_counter() + run.seconds
    for number in itertools.count():
        traced = run.traced and number % 2 == 1
        if traced:
            from escansion import baseline
            targets = [(baseline, "build_vocab", "baseline.build_vocab", None, False),
                       (baseline, "featurize", "baseline.featurize", None, False)]
            with tracer.patched(targets):
                result = _harness_pass(run, tei, run.work / f"out-{number}", len(rows), tracer)
        else:
            result = _harness_pass(run, tei, run.work / f"out-{number}", len(rows))
        passes[traced].append(result)
        if time.perf_counter() >= deadline and (number >= 1 or not run.traced):
            break
    untraced = passes[False]
    run.facts.update(passes=len(untraced) + len(passes[True]),
                     test_exact_match=untraced[0]["accuracy"])
    if run.traced:
        _harness_layers(run, tracer, passes)
        return
    latencies = [x for p in untraced for x in p["latencies"]]
    tails = grouped_tail(latencies, TAIL_GROUP[run.workload])
    run.metrics.update(
        lines_per_s=(median([len(rows) / p["wall"] for p in untraced]), "1/s"),
        call_p50_ms=(median(latencies) * 1e3, "ms"),
        call_tail_ms=(tails["value"] * 1e3, "ms"),
        peak_rss_mb=(peak_rss_mb(), "MB"))
    run.report.update(
        train_s_per_epoch=[median([p["train"] / p["epochs"] for p in untraced]), "s"],
        predict_lines_per_s=[median([p["tests"] / p["predict"] for p in untraced]), "1/s"],
        prepare_lines_per_s=[median([len(rows) / p["prepare"] for p in untraced]), "1/s"],
        raw_lines_per_s=[median([len(rows) / p["raw_wall"] for p in untraced]), "1/s"],
        tail=tails)
    last = untraced[-1]
    measure_setup(run, _HARNESS_CHILD, [str(last["model"]), last["first_text"]])


def _harness_layers(run: Run, tracer: Tracer, passes: dict) -> None:
    summary = tracer.summary()
    traced = passes[True]
    n_pass = len(traced)

    def entry(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def us_per(name, count, key="total_s"):
        return entry(name)[key] / count * 1e6 if count else 0.0

    rows = run.facts["corpus_lines"]
    lines = rows * n_pass  # each pass parses the corpus and reads all of it back
    m = run.metrics
    m["corpus.parse_tei_us_per_line"] = (us_per("corpus.parse_tei_dir", lines), "us")
    m["corpus.split_s"] = (entry("corpus.split")["total_s"] / n_pass, "s")
    m["corpus.write_split_s"] = (entry("corpus.write_split")["total_s"] / n_pass, "s")
    m["corpus.read_tsv_us_per_line"] = (us_per("corpus.read_tsv", lines), "us")
    epochs = sum(p["epochs"] for p in traced)
    m["baseline.vocab_s"] = (entry("baseline.build_vocab")["total_s"] / n_pass, "s")
    m["baseline.epoch_s"] = (entry("baseline.train")["self_s"] / epochs, "s")
    m["baseline.epochs_run"] = (epochs / n_pass, "count")
    m["baseline.featurize_us_per_line"] = (
        us_per("baseline.featurize", entry("baseline.featurize")["calls"], "self_s"), "us")
    m["baseline.predict_us_per_line"] = (
        us_per("baseline.predict", entry("baseline.predict")["calls"], "self_s"), "us")
    m["baseline.save_s"] = (entry("baseline.save_model")["total_s"] / n_pass, "s")
    m["baseline.load_s"] = (entry("baseline.load_model")["total_s"] / n_pass, "s")
    m["baseline.test_exact_match"] = (traced[0]["accuracy"], "%")
    m["metrics.score_us_per_line"] = (
        us_per("metrics.score_predictions_file", sum(p["tests"] for p in traced)), "us")
    overhead(run, median([rows / p["wall"] for p in passes[False]]),
             median([rows / p["wall"] for p in traced]))
    run.tracer = tracer


RUNNERS = {"verse": run_verse, "site_heavy": run_site_heavy,
           "cli_novel": run_cli_novel, "harness": run_harness}
