"""Summary statistics and span arithmetic for the repository benchmark.

Pure functions over plain lists and dicts, so test_stats.py can pin
them without building anything.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it; otherwise the highest percentile that qualifies is
# reported instead, and the result says so.
MIN_BEYOND = 10


def percentile(values, p):
    """The p-th percentile (0..100) of values, interpolated linearly
    between closest ranks (the 'inclusive' definition)."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    rank = (len(s) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def highest_valid_percentile(n, min_beyond=MIN_BEYOND):
    """The highest whole percentile with min_beyond of n samples beyond
    it, or None when even the median has fewer."""
    p = math.floor(100.0 * (1.0 - min_beyond / n)) if n else -1
    return p if p >= 50 else None


def guarded_percentile(values, p, min_beyond=MIN_BEYOND):
    """The p-th percentile when at least min_beyond samples lie beyond
    it; otherwise the highest percentile that has them (the median when
    none does), with a note naming the substitution."""
    n = len(values)
    beyond = n * (1.0 - p / 100.0)
    if beyond >= min_beyond:
        return {"value": percentile(values, p), "p": p, "n": n, "note": ""}
    q = highest_valid_percentile(n, min_beyond)
    used = q if q is not None else 50
    note = (f"p{p:g} has {beyond:.1f} < {min_beyond} samples beyond it; "
            f"reporting p{used:g} of n={n}")
    return {"value": percentile(values, used), "p": used, "n": n,
            "note": note}


def summarize(values, better="lower"):
    """Median, quartiles and count of a list of timings, and as "fast"
    their fast decile: the 10th percentile of a lower-is-better figure,
    the 90th of a higher-is-better one."""
    n = len(values)
    if n == 0:
        return {"median": None, "q1": None, "q3": None, "n": 0,
                "fast": None}
    fast = percentile(values, 10 if better == "lower" else 90)
    if n == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": 1, "fast": fast}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": n, "fast": fast}


def histogram_quantile(buckets, q):
    """Quantile q (0..1) of a cumulative histogram, given as sorted
    (upper_bound, cumulative_count) pairs ending with +inf; linear
    within the bucket the rank falls in, as Prometheus does."""
    total = buckets[-1][1]
    if total == 0:
        raise ValueError("quantile of an empty histogram")
    rank = q * total
    prev_bound, prev_count = 0.0, 0
    for bound, count in buckets:
        if count >= rank and count > prev_count:
            if math.isinf(bound):
                return prev_bound
            return prev_bound + (bound - prev_bound) * (
                (rank - prev_count) / (count - prev_count))
        prev_bound, prev_count = bound, count
    return prev_bound


def guarded_histogram_percentile(buckets, p, min_beyond=MIN_BEYOND):
    """guarded_percentile() for a cumulative histogram."""
    n = buckets[-1][1]
    beyond = n * (1.0 - p / 100.0)
    used, note = p, ""
    if beyond < min_beyond:
        q = highest_valid_percentile(n, min_beyond)
        used = q if q is not None else 50
        note = (f"p{p:g} has {beyond:.1f} < {min_beyond} samples beyond "
                f"it; reporting p{used:g} of n={n}")
    return {"value": histogram_quantile(buckets, used / 100.0), "p": used,
            "n": n, "note": note}


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its children's intervals cover (overlapping children count once).
    spans: dicts with id, parent (-1 for a root), start, end."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cur_start = cur_end = None
        kids = sorted(children.get(s["id"], []), key=lambda k: k["start"])
        for k in kids:
            a, b = max(k["start"], s["start"]), min(k["end"], s["end"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def attribute(spans, root="run"):
    """Split the wall time of every `root` span into rows of self time:
    one row per descendant span name (tick spans split further by their
    class, as tick.<class>) plus an `unattributed` row holding the
    roots' own self time. The rows sum to the roots' total duration.
    Returns (rows, total)."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    rows = {"unattributed": 0}
    total = 0

    def root_of(s):
        while s["parent"] != -1:
            s = by_id[s["parent"]]
        return s

    for s in spans:
        top = root_of(s)
        if top["name"] != root:
            continue
        if s is top:
            total += s["end"] - s["start"]
            rows["unattributed"] += selfs[s["id"]]
            continue
        name = s["name"]
        if name == "tick" and s.get("class"):
            name = "tick." + s["class"]
        rows[name] = rows.get(name, 0) + selfs[s["id"]]
    return rows, total
