"""Exporters: run manifests to external monitoring formats.

Only the Prometheus *text exposition format* is implemented — it is a
plain-text format with zero client-library dependencies, and every
mainstream scraper (Prometheus itself, VictoriaMetrics, Grafana
agent) ingests it.  The exporter is a pure function of a run manifest
(:func:`repro.obs.runstore.build_manifest`), so the same document
feeds the run store, ``runs diff`` and the metrics endpoint.

Output is deterministic (sorted metric and label order) so golden-file
tests can compare it byte for byte.
"""

from __future__ import annotations

_PREFIX = "repro"


def _escape(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _sanitize(name: str) -> str:
    """A metric-name-safe form of a registry key: the registry allows
    ``:`` and arbitrary punctuation, Prometheus ``[a-zA-Z0-9_:]`` —
    map everything else to ``_``."""
    return "".join(
        ch if ch.isalnum() or ch in "_:" else "_" for ch in name
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def to_prometheus(manifest: dict, service: dict | None = None) -> str:
    """Render a run manifest in the Prometheus text exposition format.

    Every sample carries ``program`` and ``model`` labels; registry
    metric names ride in a ``name`` label under a fixed family per
    kind (counter / gauge / histogram / phase), so arbitrary
    registry keys can't produce malformed metric names.

    ``service`` optionally appends the verification service's job
    families (see :func:`service_families`); the server's ``/metrics``
    endpoint passes an empty manifest plus its live service stats, in
    which case the per-run families are skipped entirely.
    """
    lines: list[str] = []
    if manifest:
        lines.extend(_run_lines(manifest))
    if service is not None:
        lines.extend(service_families(service))
    return "\n".join(lines) + "\n"


def _run_lines(manifest: dict) -> list[str]:
    labels = (
        f'program="{_escape(manifest.get("program") or "")}"'
        f',model="{_escape(manifest.get("model") or "")}"'
    )
    result = manifest.get("result", {})
    lines: list[str] = []

    def sample(family: str, value, extra: str = "", help_: str | None = None,
               type_: str | None = None) -> None:
        if help_ is not None:
            lines.append(f"# HELP {family} {help_}")
        if type_ is not None:
            lines.append(f"# TYPE {family} {type_}")
        label_str = labels + (f",{extra}" if extra else "")
        lines.append(f"{family}{{{label_str}}} {_fmt(value)}")

    sample(
        f"{_PREFIX}_executions_total",
        result.get("executions", 0),
        help_="Distinct consistent complete executions.",
        type_="counter",
    )
    sample(
        f"{_PREFIX}_blocked_total",
        result.get("blocked", 0),
        help_="Blocked explorations (failed assume / unsat RMW).",
        type_="counter",
    )
    sample(
        f"{_PREFIX}_duplicates_total",
        result.get("duplicates", 0),
        help_="Complete graphs reached more than once.",
        type_="counter",
    )
    sample(
        f"{_PREFIX}_errors_total",
        result.get("errors", 0),
        help_="Assertion failures found.",
        type_="counter",
    )
    sample(
        f"{_PREFIX}_truncated",
        result.get("truncated", False),
        help_="1 when a search limit bit somewhere.",
        type_="gauge",
    )
    sample(
        f"{_PREFIX}_elapsed_seconds",
        result.get("elapsed", 0.0),
        help_="Wall-clock duration of the run.",
        type_="gauge",
    )

    stats = result.get("stats", {})
    if stats:
        family = f"{_PREFIX}_stat_total"
        lines.append(f"# HELP {family} Exploration statistics counters.")
        lines.append(f"# TYPE {family} counter")
        for key in sorted(stats):
            lines.append(
                f'{family}{{{labels},stat="{_escape(key)}"}} '
                f"{_fmt(stats[key])}"
            )

    metrics = manifest.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        family = f"{_PREFIX}_counter_total"
        lines.append(f"# HELP {family} Registry counters (profiler hooks).")
        lines.append(f"# TYPE {family} counter")
        for key in sorted(counters):
            lines.append(
                f'{family}{{{labels},name="{_escape(key)}"}} '
                f"{_fmt(counters[key])}"
            )
    gauges = metrics.get("gauges", {})
    if gauges:
        family = f"{_PREFIX}_gauge"
        lines.append(f"# HELP {family} Registry gauges.")
        lines.append(f"# TYPE {family} gauge")
        for key in sorted(gauges):
            lines.append(
                f'{family}{{{labels},name="{_escape(key)}"}} '
                f"{_fmt(gauges[key])}"
            )
    histograms = metrics.get("histograms", {})
    for key in sorted(histograms):
        hist = histograms[key]
        family = f"{_PREFIX}_hist_{_sanitize(key)}"
        lines.append(f"# TYPE {family} histogram")
        cumulative = 0
        buckets = hist.get("buckets", {})
        ordered = sorted(
            (float(name[len("le_"):]), count)
            for name, count in buckets.items()
            if name.startswith("le_")
        )
        for bound, count in ordered:
            cumulative += count
            lines.append(
                f'{family}_bucket{{{labels},le="{_fmt(bound)}"}} '
                f"{cumulative}"
            )
        cumulative += buckets.get("inf", 0)
        lines.append(
            f'{family}_bucket{{{labels},le="+Inf"}} {cumulative}'
        )
        lines.append(f"{family}_sum{{{labels}}} {_fmt(hist.get('total', 0.0))}")
        lines.append(f"{family}_count{{{labels}}} {hist.get('count', 0)}")

    spans = manifest.get("spans", {}) or {}
    if spans:
        for field, family_suffix, help_, type_ in (
            ("seconds", "span_seconds_total",
             "Total traced seconds per span name.", "counter"),
            ("calls", "span_calls_total",
             "Calls per span name (a phase span counts its calls).",
             "counter"),
        ):
            family = f"{_PREFIX}_{family_suffix}"
            lines.append(f"# HELP {family} {help_}")
            lines.append(f"# TYPE {family} {type_}")
            for name in sorted(spans):
                entry = spans[name]
                lines.append(
                    f'{family}{{{labels},span="{_escape(name)}"'
                    f',cat="{_escape(entry.get("cat", "span"))}"}} '
                    f"{_fmt(entry.get(field, 0))}"
                )

    phases = manifest.get("phases", {}) or {}
    if phases:
        for field, family_suffix, help_ in (
            ("self", "phase_self_seconds", "Exclusive seconds per phase."),
            ("total", "phase_seconds", "Inclusive seconds per phase."),
            ("calls", "phase_calls_total", "Activations per phase."),
        ):
            family = f"{_PREFIX}_{family_suffix}"
            lines.append(f"# HELP {family} {help_}")
            lines.append(
                f"# TYPE {family} "
                + ("counter" if field == "calls" else "gauge")
            )
            for name in sorted(phases):
                value = phases[name].get(field, 0)
                lines.append(
                    f'{family}{{{labels},phase="{_escape(name)}"}} '
                    f"{_fmt(value)}"
                )
    return lines


def service_families(service: dict) -> list[str]:
    """The verification service's metric families.

    ``service`` is the plain dict a running server maintains:
    ``jobs`` (state name → count of jobs that *reached* that state),
    ``queue_depth``, ``inflight``, ``cache_hits``, plus optional
    ``submitted``/``rejected``/``executions``/``uptime_seconds``.
    Absent keys render as zero so scrapes are shape-stable.
    """
    lines: list[str] = []
    family = f"{_PREFIX}_service_jobs_total"
    lines.append(f"# HELP {family} Jobs by terminal state.")
    lines.append(f"# TYPE {family} counter")
    jobs = service.get("jobs", {})
    for state in sorted(set(jobs) | {"done", "failed", "cancelled"}):
        lines.append(
            f'{family}{{state="{_escape(state)}"}} '
            f"{_fmt(jobs.get(state, 0))}"
        )
    for name, help_, type_ in (
        ("queue_depth", "Jobs waiting in the queue.", "gauge"),
        ("inflight", "Jobs currently executing.", "gauge"),
        ("submitted", "Jobs accepted since start.", "counter"),
        ("rejected", "Submissions rejected by backpressure.", "counter"),
        ("cache_hits", "Suite tasks served from the result cache.",
         "counter"),
        ("executions", "Consistent executions explored for jobs.",
         "counter"),
        ("events_dropped",
         "Progress events evicted from bounded job event rings.",
         "counter"),
    ):
        family = f"{_PREFIX}_service_{name}"
        if type_ == "counter":
            family += "_total"
        lines.append(f"# HELP {family} {help_}")
        lines.append(f"# TYPE {family} {type_}")
        lines.append(f"{family} {_fmt(service.get(name, 0))}")
    family = f"{_PREFIX}_service_uptime_seconds"
    lines.append(f"# HELP {family} Seconds since the server started.")
    lines.append(f"# TYPE {family} gauge")
    lines.append(f"{family} {_fmt(round(service.get('uptime_seconds', 0.0), 3))}")
    return lines
