"""ADS1: ads-serving ML inference with compressed request payloads.

"Since machine learning input features are usually large with frequent
requests, transmitting them over the wire is expensive ... Since this
service has a strict latency requirement, it is important to understand the
trade-off between the reduction in request size ... and the increase in the
application latency" (Section IV-D).
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.services.ads.service": ("AdsInferenceService", "AdsRequestStats"),
    },
)
