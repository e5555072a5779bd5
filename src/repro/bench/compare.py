"""Comparator: classify every bench metric as ok / improved / regressed.

Three gates, in increasing order of severity:

* **wall time** (per point) — compared against the previous baseline
  entry with a noise bound built from both runs' MADs plus a relative
  tolerance; only exceeding the bound *upward* is a regression.
  Wall-time verdicts are machine-local: comparing a laptop run
  against a CI baseline is noise, so the CLI can disable this gate
  (``--skip-perf``) while keeping the machine-independent ones.
* **cycles** (per point) — the simulator is deterministic, so any
  cycle-count change against the baseline is *drift*: reported as
  ``changed`` (not failing by default — legitimate model work changes
  cycles, and the fidelity bands below are the semantic gate).
* **fidelity bands** (per ratio / per GLSC point) — GLSC/Base speedup
  outside the committed reference band, a failure rate outside its
  band, or a flipped dominant failure cause is a hard ``regressed``:
  the reproduction no longer shows the paper's shape.

A fourth check reports aggregate simulator throughput — the noisy
wall-clock ``sim_khz`` and the deterministic cycles-per-instruction
proxy — against the previous trajectory entry.  By default it is
purely informational (``changed``/``improved``, never failing); with
``gate_throughput=True`` (CLI ``--gate-throughput``) a drop beyond the
tolerance becomes a failing ``regressed`` verdict.

The CLI exits non-zero iff :attr:`Comparison.failed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["Comparator", "Comparison", "Verdict"]

#: Verdict labels, in report order.
VERDICTS = ("regressed", "changed", "missing", "new", "improved", "ok", "skipped")


@dataclass
class Verdict:
    """One metric's classification."""

    metric: str           # e.g. "wall:tms/A:4x4:w4:glsc"
    kind: str             # "perf" | "cycles" | "fidelity"
    verdict: str          # one of VERDICTS
    old: Optional[float] = None
    new: Optional[float] = None
    note: str = ""

    @property
    def delta_pct(self) -> Optional[float]:
        if self.old in (None, 0) or self.new is None:
            return None
        return 100.0 * (self.new - self.old) / self.old


@dataclass
class Comparison:
    """Every verdict of one comparator pass, plus the overall gate."""

    sha: str = ""
    baseline_sha: str = ""
    suite: str = ""
    verdicts: List[Verdict] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out = {v: 0 for v in VERDICTS}
        for verdict in self.verdicts:
            out[verdict.verdict] += 1
        return out

    @property
    def failed(self) -> bool:
        """Whether the gate fails (any ``regressed`` verdict)."""
        return any(v.verdict == "regressed" for v in self.verdicts)

    def by_verdict(self, name: str) -> List[Verdict]:
        return [v for v in self.verdicts if v.verdict == name]

    def render(self) -> str:
        """Plain-text verdict table (the CLI's compare output)."""
        lines = [
            f"bench compare: {self.sha} vs baseline "
            f"{self.baseline_sha or '(none)'} [suite {self.suite}]",
            f"{'metric':46s} {'old':>12s} {'new':>12s} "
            f"{'delta':>8s}  verdict",
        ]
        order = {name: i for i, name in enumerate(VERDICTS)}
        for v in sorted(
            self.verdicts, key=lambda v: (order[v.verdict], v.metric)
        ):
            if v.verdict == "ok":
                continue  # only exceptions make the table; counts below
            old = f"{v.old:.6g}" if v.old is not None else "-"
            new = f"{v.new:.6g}" if v.new is not None else "-"
            delta = (
                f"{v.delta_pct:+.1f}%" if v.delta_pct is not None else "-"
            )
            note = f"  ({v.note})" if v.note else ""
            lines.append(
                f"{v.metric[:46]:46s} {old:>12s} {new:>12s} "
                f"{delta:>8s}  {v.verdict}{note}"
            )
        counts = self.counts()
        summary = ", ".join(
            f"{counts[name]} {name}" for name in VERDICTS if counts[name]
        )
        lines.append(f"verdicts: {summary or 'none'}")
        lines.append(
            "GATE: " + ("REGRESSED" if self.failed else "ok")
        )
        return "\n".join(lines)


class Comparator:
    """Diffs a bench document against a baseline and reference bands.

    ``rel_tol`` is the minimum relative wall-time change considered
    meaningful; ``mad_mult`` scales the combined MAD noise estimate;
    ``abs_floor_s`` ignores absolute changes smaller than scheduling
    jitter.  A point regresses only when it exceeds *all three*.
    """

    def __init__(
        self,
        rel_tol: float = 0.15,
        mad_mult: float = 5.0,
        abs_floor_s: float = 0.02,
        check_perf: bool = True,
        check_cycles: bool = True,
        gate_throughput: bool = False,
    ) -> None:
        self.rel_tol = rel_tol
        self.mad_mult = mad_mult
        self.abs_floor_s = abs_floor_s
        self.check_perf = check_perf
        self.check_cycles = check_cycles
        #: When set, a throughput drop beyond the noise bound (aggregate
        #: sim_khz) or beyond ``rel_tol`` (the deterministic
        #: cycles-per-instruction proxy) becomes a failing ``regressed``
        #: verdict instead of an informational ``changed``.
        self.gate_throughput = gate_throughput

    # -- gates ------------------------------------------------------------

    def _perf_verdicts(
        self,
        current: Mapping[str, Any],
        baseline: Mapping[str, Any],
    ) -> List[Verdict]:
        out: List[Verdict] = []
        new_wall = {
            p["id"]: p["wall_s"] for p in current["points"]
        }
        old_wall: Dict[str, Dict[str, float]] = baseline.get("wall", {})
        for pid, new in new_wall.items():
            metric = f"wall:{pid}"
            old = old_wall.get(pid)
            if old is None:
                out.append(
                    Verdict(metric, "perf", "new", None, new["median"])
                )
                continue
            bound = max(
                self.rel_tol * old["median"],
                self.mad_mult * max(old.get("mad", 0.0), new.get("mad", 0.0)),
                self.abs_floor_s,
            )
            delta = new["median"] - old["median"]
            if delta > bound:
                verdict = "regressed"
            elif delta < -bound:
                verdict = "improved"
            else:
                verdict = "ok"
            out.append(
                Verdict(
                    metric, "perf", verdict, old["median"], new["median"],
                    note=f"bound ±{bound:.3f}s" if verdict != "ok" else "",
                )
            )
        for pid in old_wall:
            if pid not in new_wall:
                out.append(
                    Verdict(
                        f"wall:{pid}", "perf", "missing",
                        old_wall[pid]["median"], None,
                        note="point present in baseline, absent now",
                    )
                )
        return out

    def _throughput_verdicts(
        self,
        current: Mapping[str, Any],
        baseline: Mapping[str, Any],
    ) -> List[Verdict]:
        """Aggregate simulator throughput (sim_khz), informational only.

        Throughput is the *simulator's* speed, not the model's output:
        it moves with host load, interpreter version, and hot-path
        work, so it never gates.  A drop beyond the noise bound is
        reported as ``changed`` (visible in the table and the CI step
        summary), an equally large rise as ``improved``.
        """
        points = current.get("points", [])
        total_wall = sum(p["wall_s"]["median"] for p in points)
        total_cycles = sum(p["cycles"] for p in points)
        total_instr = sum(p.get("instructions", 0) for p in points)
        if total_wall <= 0.0:
            return []
        new_khz = total_cycles / total_wall / 1e3
        headline = baseline.get("headline", {})
        old_khz = headline.get("sim_khz")
        if old_khz is None:
            # Pre-sim_khz trajectory entries still carry cyc_per_s.
            old_cps = headline.get("cyc_per_s")
            old_khz = old_cps / 1e3 if old_cps else None
        if not old_khz:
            return [
                Verdict(
                    f"sim_khz:{current.get('suite', '?')}",
                    "throughput", "new", None, new_khz,
                    note="no throughput baseline",
                )
            ]
        # Noise bound: the wall-time MADs of the current run, scaled
        # the same way the per-point perf gate scales them, expressed
        # as a fraction of the total wall.
        total_mad = sum(p["wall_s"].get("mad", 0.0) for p in points)
        noise_frac = max(
            self.rel_tol, self.mad_mult * total_mad / total_wall
        )
        out: List[Verdict] = []
        if new_khz < old_khz * (1.0 - noise_frac):
            if self.gate_throughput:
                verdict, note = "regressed", (
                    f"simulator throughput down beyond noise "
                    f"(±{100 * noise_frac:.0f}%); --gate-throughput"
                )
            else:
                verdict, note = "changed", (
                    f"simulator throughput down beyond noise "
                    f"(±{100 * noise_frac:.0f}%); informational, not gating"
                )
        elif new_khz > old_khz * (1.0 + noise_frac):
            verdict, note = "improved", (
                f"simulator throughput up beyond noise "
                f"(±{100 * noise_frac:.0f}%)"
            )
        else:
            verdict, note = "ok", ""
        out.append(
            Verdict(
                f"sim_khz:{current.get('suite', '?')}",
                "throughput", verdict, old_khz, new_khz, note=note,
            )
        )
        old_ips = headline.get("instr_per_sec")
        if old_ips and total_instr:
            out.append(
                Verdict(
                    f"instr_per_sec:{current.get('suite', '?')}",
                    "throughput", "ok", old_ips,
                    total_instr / total_wall,
                )
            )
        return out

    def _proxy_verdicts(
        self,
        current: Mapping[str, Any],
        baseline: Mapping[str, Any],
    ) -> List[Verdict]:
        """The cycles-per-instruction throughput proxy.

        Unlike wall time, the proxy is deterministic (both numerator
        and denominator come out of the simulation), so it carries no
        noise bound — a drift beyond ``rel_tol`` means the *model*
        retires more cycles per instruction than the baseline did.
        It gates only under ``gate_throughput``; model work that
        legitimately shifts the ratio should refresh the baseline.
        """
        points = current.get("points", [])
        total_cycles = sum(p["cycles"] for p in points)
        total_instr = sum(p.get("instructions", 0) for p in points)
        if not total_instr:
            return []
        new_cpi = total_cycles / total_instr
        headline = baseline.get("headline", {})
        old_instr = headline.get("total_instructions")
        if not old_instr:
            # Older trajectory entries: derive instruction totals from
            # the archived rate and wall.
            ips = headline.get("instr_per_sec")
            wall = headline.get("total_wall_s")
            old_instr = ips * wall if ips and wall else None
        old_cycles = headline.get("total_cycles")
        if not old_instr or not old_cycles:
            return []
        old_cpi = old_cycles / old_instr
        metric = f"cyc_per_instr:{current.get('suite', '?')}"
        if new_cpi > old_cpi * (1.0 + self.rel_tol):
            if self.gate_throughput:
                verdict = "regressed"
                note = (
                    f"cycles/instruction up >{100 * self.rel_tol:.0f}% "
                    "(deterministic proxy); --gate-throughput"
                )
            else:
                verdict = "changed"
                note = (
                    f"cycles/instruction up >{100 * self.rel_tol:.0f}% "
                    "(deterministic proxy); informational, not gating"
                )
        elif new_cpi < old_cpi * (1.0 - self.rel_tol):
            verdict, note = "improved", "cycles/instruction down"
        else:
            verdict, note = "ok", ""
        return [
            Verdict(metric, "throughput", verdict, old_cpi, new_cpi,
                    note=note)
        ]

    def _cycle_verdicts(
        self,
        current: Mapping[str, Any],
        baseline: Mapping[str, Any],
    ) -> List[Verdict]:
        out: List[Verdict] = []
        old_cycles: Dict[str, int] = baseline.get("cycles", {})
        for point in current["points"]:
            pid = point["id"]
            if pid not in old_cycles:
                continue
            old, new = old_cycles[pid], point["cycles"]
            out.append(
                Verdict(
                    f"cycles:{pid}",
                    "cycles",
                    "ok" if new == old else "changed",
                    float(old),
                    float(new),
                    note="" if new == old else
                    "deterministic model output drifted; refresh the "
                    "baseline if intentional",
                )
            )
        return out

    def _fidelity_verdicts(
        self,
        current: Mapping[str, Any],
        reference: Mapping[str, Any],
    ) -> List[Verdict]:
        out: List[Verdict] = []
        fidelity = current.get("fidelity", {})
        bands: Mapping[str, Any] = reference.get("speedup_bands", {})
        for key, value in fidelity.get("speedup", {}).items():
            metric = f"speedup:{key}"
            band = bands.get(key)
            if band is None:
                out.append(
                    Verdict(metric, "fidelity", "skipped", None, value,
                            note="no reference band")
                )
                continue
            lo, hi = band
            if lo <= value <= hi:
                out.append(Verdict(metric, "fidelity", "ok", None, value))
            else:
                out.append(
                    Verdict(
                        metric, "fidelity", "regressed", None, value,
                        note=f"outside reference band [{lo}, {hi}]",
                    )
                )
        mix_bands: Mapping[str, Any] = reference.get("failure_mix", {})
        for pid, entry in fidelity.get("failure_mix", {}).items():
            band = mix_bands.get(pid)
            metric = f"failure_rate:{pid}"
            if band is None:
                out.append(
                    Verdict(metric, "fidelity", "skipped", None,
                            entry["rate"], note="no reference band")
                )
                continue
            lo, hi = band.get("rate_band", (0.0, 1.0))
            rate = entry["rate"]
            if not (lo <= rate <= hi):
                out.append(
                    Verdict(
                        metric, "fidelity", "regressed", None, rate,
                        note=f"failure rate outside band [{lo}, {hi}]",
                    )
                )
            else:
                out.append(Verdict(metric, "fidelity", "ok", None, rate))
            want = band.get("dominant")
            got = entry.get("dominant")
            if want is not None and got is not None and want != got:
                out.append(
                    Verdict(
                        f"failure_dominant:{pid}", "fidelity", "regressed",
                        note=(
                            f"dominant failure cause flipped: reference "
                            f"{want!r}, observed {got!r}"
                        ),
                    )
                )
        return out

    # -- entry point ------------------------------------------------------

    def compare(
        self,
        current: Mapping[str, Any],
        baseline: Optional[Mapping[str, Any]] = None,
        reference: Optional[Mapping[str, Any]] = None,
    ) -> Comparison:
        """Run every enabled gate; missing inputs skip their gate."""
        comparison = Comparison(
            sha=current.get("git_sha", "?"),
            baseline_sha=(baseline or {}).get("git_sha", ""),
            suite=current.get("suite", "?"),
        )
        if baseline is not None:
            if self.check_perf:
                comparison.verdicts.extend(
                    self._perf_verdicts(current, baseline)
                )
                comparison.verdicts.extend(
                    self._throughput_verdicts(current, baseline)
                )
            if self.check_cycles:
                comparison.verdicts.extend(
                    self._cycle_verdicts(current, baseline)
                )
                # The cycles-per-instruction proxy is deterministic
                # (machine-independent), so it rides with the cycle
                # gate, not the wall-time one: --skip-perf on a
                # foreign-baseline machine keeps it.
                comparison.verdicts.extend(
                    self._proxy_verdicts(current, baseline)
                )
        if reference is not None:
            comparison.verdicts.extend(
                self._fidelity_verdicts(current, reference)
            )
        return comparison
