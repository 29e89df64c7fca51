"""Grounding of procedural article steps in videos, narrations as a bridge."""

from .config import ConfigError, RunConfig, load_run_config, save_run_config
from .corpus import (Article, Batch, Corpus, CorpusError, LabelSource,
                     Segment, SynthConfig, VideoRecord, batch_iter,
                     generate_synthetic, read_corpus, split_corpus,
                     write_corpus)
from .encoder import (AlignmentSet, ModelConfig, ModelError, forward,
                      forward_batch, init_params)
from .evalkit import (MetricReport, alignability_auc, blob_detect,
                      evaluate_predictions, evaluate_video, interval_iou,
                      merge_reports, read_predictions)
from .objective import LossConfig, info_nce, total_loss
from .pseudolabel import (PseudoConfig, PseudoLabel, PseudoLabelSet,
                          generate_pseudolabels)
from .taskselect import TrigramEmbedder, assign_articles, rank_tasks
from .trainer import (OptimizerState, TrainConfig, adamw_step, cosine_lr,
                      label_corpus, train)

__version__ = "0.1.0"
