"""Anomaly-detection evaluation: ranking measures, decision-volume
estimates, reference detectors and a reproducible benchmark harness."""

from adeval.curves import (
    RocRows,
    auc_at_rows,
    auc_rows,
    auc_weighted_rows,
    check_labels,
    descending_order,
    roc_rows,
    threshold_at_fpr_rows,
    tpr_at_rows,
)
from adeval.thresholded import (
    confusion_rows,
    f1_rows,
    precision_at_p_rows,
    precision_composition,
)
from adeval.volume import (
    SamplingBox,
    accepted_fraction,
    bounding_box,
    uniform_sample,
)
from adeval.detectors import (
    IsolationForestModel,
    KnnModel,
    LofModel,
    iforest_fit,
    knn_fit,
    lof_fitter,
)
from adeval.datasets import (
    BenchmarkDataset,
    PreparedTable,
    RawTable,
    SplitSpec,
    TrainTestSplit,
    prepare_table,
    read_raw_table,
    split,
    synth_gaussian,
    synth_multiclass_table,
    write_raw_table,
)
from adeval.experiments import (
    Combo,
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

__version__ = "0.8.0"
