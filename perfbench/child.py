"""One pass of a workload in a fresh process: ``python3 child.py '<json spec>'``.

The spec names the checkout root, the workload kind, its work directory,
where to write the result, and whether to trace.  The result file holds the
process's peak RSS and, for a traced pass, the spans, the per-family
extraction times and the state of the wrapped attributes afterwards.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def family_times(work: Path) -> dict:
    """Per-family extraction time with the shared framing and spectrum taken out.

    Each clip is decoded once, then ``extract_selected(clip, [family])`` is
    timed per family; the ``spectral.stft`` spans inside each call are
    subtracted, leaving the family's own work.
    """
    from scenefuse import dataio, features
    from tracing import FAMILIES, STFT_TARGETS, Instrumentation, Tracer, self_times

    manifest_path = work / "data" / "manifest.tsv"
    manifest = dataio.load_manifest(manifest_path)
    tracer = Tracer()
    with Instrumentation(tracer, STFT_TARGETS):
        for entry_path, _ in manifest.entries:
            clip = dataio.read_wav(dataio.resolve_clip_path(manifest_path, entry_path))
            for family in FAMILIES:
                with tracer.span(family):
                    features.extract_selected(clip, [family])
    selfs = self_times(tracer.spans)
    out = dict.fromkeys(FAMILIES, 0.0)
    for span, own in zip(tracer.spans, selfs):
        if span["name"] in out:
            out[span["name"]] += own
    return out


def main(spec: dict) -> None:
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import scenefuse

    if Path(scenefuse.__file__).resolve().parent != (root / "src" / "scenefuse").resolve():
        raise ImportError(f"scenefuse imported from {scenefuse.__file__}, not {root / 'src'}")
    import scenefuse.cli  # noqa: F401  (the package does not import the CLI)

    result: dict = {}
    if spec.get("kind"):
        from workloads import run_pass

        work = Path(spec["work"])
        if spec["trace"]:
            from tracing import Instrumentation, Tracer, leftover_wrappers

            tracer = Tracer()
            with Instrumentation(tracer) as inst:
                with tracer.span("pass"):
                    run_pass(spec["kind"], work)
            result["spans"] = tracer.spans
            result["missing"] = inst.missing
            if spec["families"]:
                result["family_s"] = family_times(work)
            result["leftover"] = leftover_wrappers()
        else:
            run_pass(spec["kind"], work)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
