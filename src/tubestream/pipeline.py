"""Pipeline stages gluing decode, linking, and evaluation to the file formats.

The link stage is strictly streaming: ``run_link``, the one driver of
:class:`~tubestream.linker.OnlineLinker` over a stream, reads the rows a
frame at a time as columns (``records.iter_detection_frames``, which parses
each distinct box text of a frame once), groups the frames by video,
thresholds and NMS-deduplicates each frame per class by passing its box ids
to ``nms_indices``, steps the rows kept through its video's linker
(finalized when the video's rows end) and writes finished tubes out as they
complete.  A tube keeps only its committed labeled (frame, box) pairs, in a
:class:`~tubestream.linker.SpillStore` that writes them past one
8,000-byte chunk to an anonymous temp file in ``spool_dir``
(``--spool-dir``; the system temp directory by default).  Live tubes are
bounded per class (at most ``2 * max_tubes`` between frames), not by frame
width, so memory is bounded by the linker window, ``max_tubes`` and the
widest single frame's rows, independent of stream length.
"""

from __future__ import annotations

import csv
from itertools import groupby
from operator import itemgetter

from . import records
from .config import RunConfig
from .decode import CandidateBox, decode_grid, nms_indices, select_candidates
from .linker import OnlineLinker, SpillStore
from .metrics import EvalReport, evaluate


def run_decode(config: RunConfig, grids_path: str, out_path: str) -> int:
    """Decode a raw-grid file into a detections file; returns boxes written.
    The file appears only when every frame decoded."""
    _, anchors, frames = records.read_rawgrids(grids_path)
    n = 0
    with records.replaced_on_success(out_path) as tmp, records.DetectionWriter(tmp) as writer:
        for video_id, frame, grid in frames:
            survivors = select_candidates(decode_grid(grid, anchors), config.score_threshold, config.nms_iou)
            writer.write_frame(video_id, frame, *survivors)
            n += len(survivors[0])
    return n


def run_link(
    config: RunConfig,
    detections_path: str,
    tubes_path: str,
    spool_dir: str | None = None,
) -> int:
    """Link a detections file into a tubes file, streaming; returns tube count.
    The file appears only when every row linked."""
    SpillStore(spool_dir)  # checks spool_dir before the output is opened
    count = 0

    with records.replaced_on_success(tubes_path) as tmp, records.TubeWriter(tmp) as writer:

        def sink(*tube_fields):
            nonlocal count
            writer.write(*tube_fields)
            count += 1

        for video_id, blocks in groupby(records.iter_detection_frames(detections_path), itemgetter(0)):
            linker = OnlineLinker(
                config=config,
                video_id=video_id,
                store_factory=lambda: SpillStore(spool_dir),
                on_tube=sink,
            )
            for _, frame, class_ids, confidences, rates, box_ids, boxes in blocks:
                keep = nms_indices(class_ids, confidences, box_ids, boxes, config.score_threshold, config.nms_iou)
                kept = [CandidateBox(class_ids[i], boxes[box_ids[i]], confidences[i], rates[i]) for i in keep]
                linker.step(frame, kept)
            linker.finalize()
    return count


def run_eval(
    config: RunConfig,
    tubes_path: str,
    annotations_path: str,
    detections_path: str | None = None,
) -> EvalReport:
    """Score a tubes file against annotations; optional detections stream
    into the frame-level metric as written, before link's threshold and NMS
    (otherwise it is computed from the tubes' boxes)."""
    tubes = records.parse_tubes(tubes_path)
    gt_tubes = records.parse_annotations(annotations_path)
    frame_rows = None
    if detections_path is not None:
        frames = records.iter_detection_frames(detections_path)
        frame_rows = (
            (video_id, frame, class_id, conf, boxes[box_id])
            for video_id, frame, class_ids, confidences, _, box_ids, boxes in frames
            for class_id, conf, box_id in zip(class_ids, confidences, box_ids)
        )
    report = evaluate(
        tubes,
        gt_tubes,
        frame_detections=frame_rows,
        tube_thresholds=config.deltas,
        frame_threshold=config.frame_threshold,
    )
    if config.report:
        write_report_csv(config.report, report)
    return report


def write_report_csv(path: str, report: EvalReport) -> None:
    """Write the report as CSV; the file appears only when it is whole."""
    with records.replaced_on_success(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "class", "threshold", "value"])
        for metric, cls, thr, value in report.rows():
            writer.writerow([metric, cls, thr, records.fnum(value)])
