"""Campaign specifications with stable content hashes.

A :class:`CampaignSpec` is the self-contained, serialisable description of
one TVLA campaign: the netlist (as BENCH text), the full
:class:`~repro.tvla.assessment.TvlaConfig` and the shard layout.  Its
:attr:`~CampaignSpec.content_hash` is a SHA-256 over a canonical JSON
payload, which gives the campaign subsystem its two core properties:

* **Work units are pure functions of the spec.**  A worker anywhere can
  rebuild the netlist, the stimulus schedule and every chunk's draws from
  the spec alone (the counter sampler keys randomness to global chunk
  coordinates), so shard partials computed on different machines merge
  losslessly.
* **Results are content-addressed.**  Two submissions with the same hash
  are by construction the same campaign; the second is served from
  :class:`repro.campaign.store.ResultStore` bit-identically, without
  re-simulating.

Every driver — serial, sharded and queue-backed — streams its chunks into
the same moment accumulators and folds them in global chunk order, so the
hash needs no driver field: a cache hit reproduces the exact arithmetic of
any run with the same spec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from ..netlist.netlist import Netlist
from ..netlist.parser import parse_bench
from ..netlist.writer import write_bench
from ..power.model import PowerModelConfig
from ..tvla.assessment import TvlaConfig
from ..tvla.sharding import shard_trace_ranges

#: Bumped whenever the hashed payload layout (or the semantics of any
#: hashed field) changes, so stale stores can never serve foreign results.
#: Format 2 added the power-extraction backend selector to the hashed
#: config; format 3 added the sampler selector; format 4 dropped the
#: simulation and power-extraction backend selectors, whose values always
#: produced bit-identical traces; format 5 dropped the sampler and
#: streaming selectors (every campaign streams and counter-samples).
SPEC_FORMAT = 5

#: Older spec formats :meth:`CampaignSpec.from_json` still loads, as long
#: as they describe a counter-sampler campaign.  A format-2 file predates
#: the sampler selector and therefore describes a SeedSequence campaign,
#: which this build can no longer compute.
_COMPAT_FORMATS = (3, 4)

#: The one sampler legacy spec files may name.
_SAMPLER = "counter"

def _payload_json(spec_format: object, design_name: str, bench_text: str,
                  tvla: Dict[str, object], n_shards: int) -> str:
    """Canonical JSON (sorted keys, no whitespace) of one hashed payload."""
    return json.dumps({
        "format": spec_format,
        "design_name": design_name,
        "bench_text": bench_text,
        "tvla": tvla,
        "n_shards": n_shards,
    }, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tvla_config_to_dict(config: TvlaConfig) -> Dict[str, object]:
    """Flatten a :class:`TvlaConfig` (power config included) to plain JSON."""
    data = {field.name: getattr(config, field.name)
            for field in fields(config) if field.name != "power"}
    data["power"] = {field.name: getattr(config.power, field.name)
                     for field in fields(PowerModelConfig)}
    return data


def tvla_config_from_dict(data: Dict[str, object]) -> TvlaConfig:
    """Rebuild a :class:`TvlaConfig` serialised by :func:`tvla_config_to_dict`."""
    data = dict(data)
    power = PowerModelConfig(**data.pop("power"))
    return TvlaConfig(power=power, **data)


@dataclass(frozen=True)
class CampaignSpec:
    """One TVLA campaign as a first-class, hashable job description.

    Attributes:
        design_name: Name of the assessed design (also embedded in the
            BENCH text).
        bench_text: The netlist serialised by
            :func:`repro.netlist.writer.write_bench`; workers parse it back
            rather than unpickling live objects, so specs are portable
            across processes, machines and library versions.
        tvla: The campaign configuration.
        n_shards: Requested shard count; the actual shard layout is the
            chunk-aligned :meth:`shard_ranges` (which caps at the chunk
            count, exactly like the in-process sharded driver).
    """

    design_name: str
    bench_text: str
    tvla: TvlaConfig
    n_shards: int

    @classmethod
    def from_netlist(cls, netlist: Netlist, config: Optional[TvlaConfig],
                     n_shards: int = 1,
                     force_streaming: bool = False) -> "CampaignSpec":
        """Build the spec of assessing ``netlist`` under ``config``.

        Args:
            netlist: The design to assess.
            config: Campaign configuration (defaults to ``TvlaConfig()``).
            n_shards: Shard layout of the campaign.  Normalised to the
                *effective* count (capped at the chunk count, like the
                in-process sharded driver), so requesting 8 shards of a
                5-chunk campaign hashes identically to requesting 5.
            force_streaming: Accepted for compatibility and ignored:
                every campaign streams, so there is nothing to force.

        Raises:
            ValueError: for non-positive ``n_shards``.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        config = config if config is not None else TvlaConfig()
        n_shards = len(shard_trace_ranges(config.n_traces, n_shards,
                                          config.chunk_traces))
        return cls(design_name=netlist.name,
                   bench_text=write_bench(netlist),
                   tvla=config,
                   n_shards=n_shards)

    # ------------------------------------------------------------------
    def netlist(self) -> Netlist:
        """Parse the spec's BENCH text back into a :class:`Netlist`."""
        return parse_bench(self.bench_text, name=self.design_name)

    def shard_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """The chunk-aligned trace ranges of the campaign's shards."""
        return shard_trace_ranges(self.tvla.n_traces, self.n_shards,
                                  self.tvla.chunk_traces)

    def canonical_payload(self) -> str:
        """The canonical JSON string the content hash is computed over."""
        return _payload_json(SPEC_FORMAT, self.design_name, self.bench_text,
                             tvla_config_to_dict(self.tvla), self.n_shards)

    @property
    def content_hash(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_payload`.

        Stable across processes and hosts: the payload is canonical JSON
        (sorted keys, no whitespace) and Python's float repr round-trips
        exactly, so equal specs — and only equal specs — collide.
        """
        return _sha256(self.canonical_payload())

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise the spec for ``spec.json`` in a campaign directory."""
        return json.dumps({
            "format": SPEC_FORMAT,
            "design_name": self.design_name,
            "bench_text": self.bench_text,
            "tvla": tvla_config_to_dict(self.tvla),
            "n_shards": self.n_shards,
            "content_hash": self.content_hash,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Rebuild a spec written by :meth:`to_json`.

        Specs of the formats in :data:`_COMPAT_FORMATS` load too, when they
        name the counter sampler: their selector fields (backends, sampler,
        streaming) are dropped, since the values they may take all describe
        the one path this build computes.  The stored hash is verified
        against the payload stored in the file, whatever its format; a
        loaded legacy spec then hashes under the current format, so a
        legacy campaign directory (named by its old hash) fails
        :func:`repro.campaign.runner.load_spec` instead of being reused.

        Raises:
            ValueError: for unknown format versions, a format-2 file or any
                spec naming a sampler other than the counter sampler (the
                SeedSequence sampler is retired, so such campaigns cannot
                be recomputed), or a stored ``content_hash`` that no longer
                matches (corrupt or hand-edited spec files must never be
                silently trusted).
        """
        data = json.loads(text)
        spec_format = data.get("format")
        if spec_format == 2:
            raise ValueError(
                "campaign spec format 2 predates the sampler field and "
                "describes a campaign drawn with the retired SeedSequence "
                "('sequence') sampler; this build cannot recompute it")
        if spec_format != SPEC_FORMAT and spec_format not in _COMPAT_FORMATS:
            raise ValueError(
                f"unsupported campaign spec format {spec_format!r} "
                f"(this build understands {SPEC_FORMAT} and "
                f"{_COMPAT_FORMATS})")
        stored = data.get("content_hash")
        if stored is not None:
            expected = _sha256(_payload_json(
                spec_format, data["design_name"], data["bench_text"],
                data["tvla"], data["n_shards"]))
            if stored != expected:
                raise ValueError(
                    f"campaign spec hash mismatch: file says "
                    f"{stored[:12]}…, recomputed {expected[:12]}…")
        tvla_data = dict(data["tvla"])
        sampler = tvla_data.get("sampler", _SAMPLER)
        if sampler != _SAMPLER:
            raise ValueError(
                f"campaign spec names the retired {sampler!r} sampler; "
                f"this build only computes {_SAMPLER!r} campaigns")
        if spec_format != SPEC_FORMAT:
            # Legacy payloads also hashed selectors that no longer exist:
            # keep only the fields TvlaConfig still has.
            known = {field.name for field in fields(TvlaConfig)}
            tvla_data = {key: value for key, value in tvla_data.items()
                         if key in known}
        return cls(design_name=data["design_name"],
                   bench_text=data["bench_text"],
                   tvla=tvla_config_from_dict(tvla_data),
                   n_shards=data["n_shards"])
