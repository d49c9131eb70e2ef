"""Anomaly-detection evaluation: ranking measures, decision-volume
estimates, reference detectors and a reproducible benchmark harness."""

from adeval.curves import (
    LabeledScores,
    RocCurve,
    auc,
    auc_at,
    auc_weighted,
    build_roc,
    threshold_at_fpr,
    tpr_at,
)
from adeval.thresholded import (
    ConfusionCounts,
    PrecisionAtPConfig,
    confusion_at,
    f1_score,
    precision_at_p,
)
from adeval.volume import (
    SamplingBox,
    VolumeEstimate,
    bounding_box,
    uniform_sample,
    volume_below,
)
from adeval.detectors import (
    IsolationForestModel,
    KnnModel,
    LofModel,
    iforest_fit,
    knn_fit,
    lof_fit,
)
from adeval.datasets import (
    BenchmarkDataset,
    RawTable,
    SplitSpec,
    TrainTestSplit,
    make_benchmarks,
    read_raw_table,
    split,
    synth_gaussian,
    synth_multiclass_table,
    write_raw_table,
)
from adeval.experiments import (
    Combo,
    ExperimentRecord,
    GridConfig,
    MeasureId,
    MeasurePairs,
    RecordStore,
    collapse,
    kendall_matrix,
    loss_matrix_table,
    mean_rank_table,
    multiclass_sensitivity,
    roc_band,
    run_grid,
)

__version__ = "0.7.0"
