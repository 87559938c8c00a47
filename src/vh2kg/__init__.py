"""Household activity simulation and knowledge graph toolkit.

Parses activity scripts, executes them symbolically against a home
environment graph, synthesizes event-centric RDF, flags geometric fall
risks, and embeds the resulting graphs for clustering and analysis.
"""

from .cluster import KMeansConfig, kmeans, kmeans_history
from .errors import MalformedStep, MissingGeometry, Unexecutable, VH2KGError
from .home import (BoundingBox, EnvironmentGraph, ObjectNode, RelationEdge,
                   afforded_verbs, dump_environment, filter_affordances,
                   load_environment, load_environment_file,
                   read_affordance_csv)
from .rdf import (KgDocument, KgIndex, Literal, Triple, graph_stats,
                  parse_ntriples, serialize_ntriples, serialize_turtle)
from .risk import (RiskFinding, detect_risks, eval_rules_kg, eval_rules_trace,
                   explain, findings_from_json, findings_to_json)
from .scripts import (ActivityScript, ObjectRef, Step, parse_script,
                      serialize_script, validate_vocabulary)
from .simulate import (DurationModel, ExecutabilityReport, SimConfig, Trace,
                       check_executable, run_script, trace_to_json)
from .skipgram import (EmbeddingModel, SkipGramConfig, cosine_neighbors,
                       cosine_similarity, export_vectors, parse_vectors,
                       predict_probability, train_skipgram)
from .synth import ActivityMeta, build_activity_kg
from .walks import (WalkConfig, WalkCorpus, activity_roots, extract_walks,
                    parse_walks, wl_labelings, wl_relabel)

__version__ = "0.1.0"
