"""Names, units and intent of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root carries the same names, units and
directions; ``test_perfbench.py`` keeps the two in step.  The extra columns
here say which end-to-end metric a per-layer number should move and on which
workload, so a change to one layer can be checked against its prediction.
"""

from __future__ import annotations

WORKLOADS = {
    "wide": (
        "random-logit 13x13x5 grids with 24 classes through run_decode and run_link: "
        "decode and NMS do nearly all the work, thousands of boxes per frame"
    ),
    "chain": (
        "one unbroken tube over a long procedural stream through OnlineLinker.step with "
        "a spill store: linker and spill do all the work, per-frame latency"
    ),
    "eval": (
        "40 synthetic videos x 300 frames x 4 classes through run_link and run_eval: "
        "few boxes per frame, many short tubes, parsing and metrics"
    ),
}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "frames_per_s": ("frames/s", "higher", 0.25),
    "frame_latency_p50_us": ("us", "lower", 0.25),
    "frame_latency_p99_us": ("us", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.1),
}

# name -> (unit, better, end-to-end metrics it should move, workload with most work,
#          workloads with little or none)
PER_LAYER = {
    "records.read_rawgrids.us_per_frame": ("us", "lower", "frames_per_s", "wide", "chain, eval"),
    "records.iter_detection_rows.us_per_row": ("us", "lower", "frames_per_s, run_s", "eval", "chain"),
    "records.parse_tubes.us_per_row": ("us", "lower", "run_s", "eval", "wide, chain"),
    "records.parse_annotations.us_per_row": ("us", "lower", "run_s", "eval", "wide, chain"),
    "records.write.us_per_row": ("us", "lower", "run_s", "wide", "chain"),
    "decode.decode_grid.us_per_frame": ("us", "lower", "frames_per_s", "wide", "chain, eval"),
    "decode.filter_and_nms.us_per_frame": ("us", "lower", "frames_per_s, run_s", "wide", "chain, eval"),
    "decode.survivors_per_frame": ("count", "higher", "none (a change is a change of behaviour)", "wide", "chain, eval"),
    "decode.nms_boxes.calls": ("count", "lower", "frames_per_s", "wide", "chain"),
    "decode.nms_boxes.boxes_in": ("count", "lower", "frames_per_s", "wide", "eval (must not move)"),
    "decode.nms_boxes.keep_ratio": ("ratio", "higher", "frames_per_s", "wide", "chain"),
    "pipeline.nms_frame.us_per_frame": ("us", "lower", "frames_per_s", "wide", "chain"),
    "pipeline.nms_frame.keep_ratio": ("ratio", "higher", "frames_per_s", "wide (about 1: repeated work)", "chain"),
    "pipeline.iter_frames.us_per_frame": ("us", "lower", "frames_per_s", "eval", "chain"),
    "pipeline.run_decode.self_s": ("s", "lower", "run_s", "wide", "chain, eval"),
    "pipeline.run_link.self_s": ("s", "lower", "run_s", "eval", "chain"),
    "pipeline.run_eval.self_s": ("s", "lower", "run_s", "eval", "wide, chain"),
    "linker.step.us_per_frame": ("us", "lower", "frame_latency_p50_us, frame_latency_p99_us, frames_per_s", "chain, eval", "wide (about 2% of a pass)"),
    "linker.step.us_per_box": ("us", "lower", "frame_latency_p50_us, frame_latency_p99_us, frames_per_s", "chain, eval", "wide (about 2% of a pass)"),
    "linker.finalize_s": ("s", "lower", "run_s", "chain", "wide"),
    "linker.spill.append_us_per_entry": ("us", "lower", "frames_per_s, run_s", "chain", "wide (no tube outlives the window)"),
    "linker.spill.read_us_per_entry": ("us", "lower", "frames_per_s, run_s", "chain", "wide (no tube outlives the window)"),
    "linker.spill.bytes": ("bytes", "lower", "frames_per_s, run_s", "chain", "wide (no tube outlives the window)"),
    "linker.tubes_emitted": ("count", "higher", "none (a change is a change of behaviour)", "chain, eval", "wide (random logits label no frame)"),
    "linker.entries_emitted": ("count", "higher", "none (a change is a change of behaviour)", "chain, eval", "wide (random logits label no frame)"),
    "metrics.evaluate_s": ("s", "lower", "run_s", "eval", "wide, chain"),
    "metrics.frame_map_s": ("s", "lower", "run_s", "eval", "wide, chain"),
    "metrics.video_map_s": ("s", "lower", "run_s", "eval", "wide, chain"),
    "metrics.average_temporal_iou_s": ("s", "lower", "run_s", "eval", "wide, chain"),
    "metrics.tube_iou.calls": ("count", "lower", "run_s", "eval", "wide, chain"),
    "metrics.tube_iou.calls_per_pair": ("ratio", "lower", "run_s", "eval", "wide, chain"),
    "decode.peak_traced_kib": ("KiB", "lower", "peak_rss_mib", "wide", "chain, eval"),
    "link.peak_traced_kib": ("KiB", "lower", "peak_rss_mib", "wide", "-"),
    "eval.peak_traced_kib": ("KiB", "lower", "peak_rss_mib", "eval", "wide, chain"),
    "linker.peak_ratio_long_short": ("ratio", "lower", "peak_rss_mib", "chain", "wide, eval"),
    "trace.overhead_frac": ("fraction", "lower", "-", "all", "-"),
}


def benchmark_spec() -> dict:
    """The metric part of ``BENCHMARK.json`` as this catalogue defines it."""
    return {
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [{"name": n, "unit": row[0], "better": row[1]} for n, row in PER_LAYER.items()],
    }
