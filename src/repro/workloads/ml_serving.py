"""The Figure 2 application: a model-serving pipeline on PCSI.

Figure 2 composes three functions with separated compute and state:

1. **preprocess** — fires on a TCP connection (a socket object),
   decodes the HTTP request, streams the user's upload to a file, and
   logs it into an uploads directory (eventually consistent archive);
2. **infer** — a GPU-enabled prediction function reading the uploaded
   file and the model weights ("rarely change but need to be updated
   with strong consistency and replicated widely");
3. **postprocess** — consumes the prediction through a FIFO, appends
   user metrics (eventual), and completes the HTTP response through the
   original TCP/socket object.

Weights follow the pattern the consistency menu encourages: each
version is an IMMUTABLE blob (cacheable anywhere, §3.3), named through
a small LINEARIZABLE pointer object that each inference reads — strong
consistency for updates at the price of one tiny quorum read, with the
bulk content served from node-local caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from ..baselines.monolith import PipelineStageSpec
from ..cluster.resources import KB, MB, cpu_task, gpu_task
from ..core.mutability import Mutability
from ..core.objects import Consistency
from ..core.functions import FunctionImpl
from ..core.system import PCSICloud
from ..core.taskgraph import Intermediate, TaskGraph
from ..faas.platforms import CONTAINER, GPU_CONTAINER, WASM
from ..net.marshal import SizedPayload


@dataclass(frozen=True)
class ModelServingConfig:
    """Sizes and per-stage work for the Figure 2 pipeline."""

    upload_nbytes: int = 256 * KB
    weights_nbytes: int = 100 * MB
    response_nbytes: int = 1 * KB
    metrics_entry_nbytes: int = 128
    pre_work: float = 5e8     # ~10 ms of CPU
    infer_work: float = 5e10  # ~50 ms on a GPU, ~1 s on a CPU core
    post_work: float = 1e8    # ~2 ms of CPU


class ModelServingApp:
    """The pipeline deployed on a PCSI cloud."""

    def __init__(self, cloud: PCSICloud,
                 config: Optional[ModelServingConfig] = None):
        self.cloud = cloud
        self.cfg = config if config is not None else ModelServingConfig()
        cfg = self.cfg

        # --- state layout (Figure 2's right-hand side) ---------------
        self.root = cloud.create_root("ml-serving")
        self.models_dir = cloud.mkdir()
        cloud.link(self.root, "models", self.models_dir)
        self.uploads_log = cloud.create_object(
            mutability=Mutability.APPEND_ONLY,
            consistency=Consistency.EVENTUAL)
        cloud.link(self.root, "uploads.log", self.uploads_log)
        self.metrics_obj = cloud.create_object(
            mutability=Mutability.APPEND_ONLY,
            consistency=Consistency.EVENTUAL)
        cloud.link(self.root, "metrics", self.metrics_obj)

        # Weights: version blob (immutable) + strong pointer.
        self.weights_version = 1
        weights_v1 = cloud.create_object(mutability=Mutability.MUTABLE,
                                         consistency=Consistency.EVENTUAL)
        cloud.preload(weights_v1, SizedPayload(cfg.weights_nbytes,
                                               meta="weights-v1"))
        cloud.transition(weights_v1, Mutability.IMMUTABLE)
        cloud.link(self.models_dir, "v1", weights_v1)
        self.weights_ptr = cloud.create_object(
            mutability=Mutability.MUTABLE,
            consistency=Consistency.LINEARIZABLE)
        cloud.preload(self.weights_ptr, SizedPayload(64, meta="v1"))
        cloud.link(self.root, "weights.ptr", self.weights_ptr)

        # Inference -> postprocess handoff FIFO, pinned near the GPUs.
        gpu_nodes = cloud.topology.nodes_with_device("gpu")
        host = (gpu_nodes[0].node_id if gpu_nodes
                else cloud.topology.nodes[0].node_id)
        self.fifo = cloud.create_fifo(host_node=host)

        # --- the three functions ----------------------------------------
        self.preprocess = cloud.define_function(
            "preprocess",
            [FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=0.5),
                          work_ops=cfg.pre_work)],
            body=self._preprocess_body)
        self.infer = cloud.define_function(
            "infer",
            [FunctionImpl("gpu", GPU_CONTAINER,
                          gpu_task(cpus=2, memory_gb=8, gpus=1),
                          work_ops=cfg.infer_work)],
            body=self._infer_body)
        self.postprocess = cloud.define_function(
            "postprocess",
            [FunctionImpl("container", CONTAINER,
                          cpu_task(cpus=1, memory_gb=1),
                          work_ops=cfg.post_work)],
            body=self._postprocess_body)

    # ------------------------------------------------------------- bodies
    def _preprocess_body(self, ctx) -> Generator:
        upload = yield from ctx.socket_recv(ctx.args["socket"])
        yield from ctx.compute(self.cfg.pre_work)
        yield from ctx.write(ctx.args["upload"], upload)
        yield from ctx.append(ctx.args["uploads_log"],
                              SizedPayload(self.cfg.metrics_entry_nbytes,
                                           meta="upload-entry"))
        return {"upload_bytes": upload.nbytes}

    def _infer_body(self, ctx) -> Generator:
        upload = yield from ctx.read(ctx.args["upload"])
        ptr = yield from ctx.read(ctx.args["weights_ptr"])
        weights_ref = yield from ctx.resolve(ctx.args["models_dir"],
                                             ptr.meta)
        weights = yield from ctx.read(weights_ref)
        yield from ctx.compute(self.cfg.infer_work)
        yield from ctx.fifo_put(
            ctx.args["fifo"],
            SizedPayload(self.cfg.response_nbytes,
                         meta={"model": weights.meta}))
        return {"scored_bytes": upload.nbytes, "weights": ptr.meta}

    def _postprocess_body(self, ctx) -> Generator:
        prediction = yield from ctx.fifo_get(ctx.args["fifo"])
        yield from ctx.compute(self.cfg.post_work)
        yield from ctx.append(ctx.args["metrics"],
                              SizedPayload(self.cfg.metrics_entry_nbytes))
        yield from ctx.socket_send(ctx.args["socket"], prediction)
        return {"response_bytes": prediction.nbytes}

    # ------------------------------------------------------------- serving
    def build_graph(self, socket_ref) -> TaskGraph:
        """The per-request task graph (ahead-of-time specification)."""
        upload = Intermediate("upload", nbytes_hint=self.cfg.upload_nbytes)
        g = TaskGraph("model-serving")
        g.add_stage("preprocess", self.preprocess, args={
            "socket": socket_ref, "upload": upload,
            "uploads_log": self.uploads_log})
        g.add_stage("infer", self.infer, args={
            "upload": upload, "weights_ptr": self.weights_ptr,
            "models_dir": self.models_dir, "fifo": self.fifo})
        g.add_stage("postprocess", self.postprocess, args={
            "fifo": self.fifo, "metrics": self.metrics_obj,
            "socket": socket_ref})
        g.link("preprocess", "infer")
        g.link("infer", "postprocess")
        return g

    def serve_one(self, client_node: str) -> Generator:
        """One HTTP request end to end; returns (latency, GraphResult)."""
        cloud = self.cloud
        socket = cloud.create_socket(host_node=client_node)
        cloud.external_send(socket,
                            SizedPayload(self.cfg.upload_nbytes,
                                         meta="user-image"))
        t0 = cloud.sim.now
        result = yield from cloud.submit_graph(client_node,
                                               self.build_graph(socket))
        response = yield from cloud.external_recv(socket)
        latency = cloud.sim.now - t0
        if response.nbytes != self.cfg.response_nbytes:
            raise AssertionError("response size mismatch")
        return latency, result

    def update_weights(self, client_node: str) -> Generator:
        """Roll out a new model version (§4.3's strong-consistency path).

        Creates a fresh immutable blob and atomically (linearizably)
        repoints the pointer; in-flight requests keep reading their
        pinned version.
        """
        cloud = self.cloud
        self.weights_version += 1
        name = f"v{self.weights_version}"
        blob = cloud.create_object(mutability=Mutability.MUTABLE,
                                   consistency=Consistency.EVENTUAL)
        yield from cloud.op_write(client_node, blob,
                                  SizedPayload(self.cfg.weights_nbytes,
                                               meta=f"weights-{name}"))
        cloud.transition(blob, Mutability.IMMUTABLE)
        cloud.link(self.models_dir, name, blob)
        yield from cloud.op_write(client_node, self.weights_ptr,
                                  SizedPayload(64, meta=name))
        return name


def monolith_stages(config: Optional[ModelServingConfig] = None):
    """The same pipeline as specs for the monolithic baseline."""
    cfg = config if config is not None else ModelServingConfig()
    return [
        PipelineStageSpec("preprocess", "cpu", cfg.pre_work,
                          cfg.upload_nbytes),
        PipelineStageSpec("infer", "gpu", cfg.infer_work,
                          cfg.response_nbytes),
        PipelineStageSpec("postprocess", "cpu", cfg.post_work,
                          cfg.response_nbytes),
    ]
