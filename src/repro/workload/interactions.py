"""The 24 RUBBoS web interactions.

RUBBoS models a Slashdot-style bulletin board with 24 interaction
types spanning story browsing, comment reading/posting, searching,
user registration, and moderation.  Each interaction carries the
resource demands our tier models consume: web-tier CPU, app-tier CPU,
database queries, message sizes (the ``total_traffic`` policy ranks by
these), and the log bytes the app tier writes per request — the dirty
pages that ultimately cause millibottlenecks.

Demands are calibrated for the scaled simulation testbed (see
``repro.cluster.config``), preserving the paper's utilisation *shape*:
web tier busiest (~45 % at full load), app tier moderate (~20 %),
database lightly loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError

#: Mean think time between a response and the next click, seconds.
DEFAULT_THINK_TIME = 1.0


@dataclass(frozen=True)
class Interaction:
    """One RUBBoS web interaction type.

    All durations are seconds of CPU demand on one core; sizes are in
    bytes.  ``apache_cpu`` is spent in the web tier (parsing, proxying,
    response assembly), ``tomcat_cpu`` in the servlet container, and
    ``mysql_cpu`` per database query, of which there are
    ``db_queries``.
    """

    name: str
    is_write: bool
    apache_cpu: float
    tomcat_cpu: float
    mysql_cpu: float
    db_queries: int
    request_bytes: int
    response_bytes: int
    log_bytes: int

    def __post_init__(self) -> None:
        if min(self.apache_cpu, self.tomcat_cpu, self.mysql_cpu) < 0:
            raise WorkloadError("negative CPU demand in " + self.name)
        if self.db_queries < 0:
            raise WorkloadError("negative query count in " + self.name)
        if min(self.request_bytes, self.response_bytes, self.log_bytes) < 0:
            raise WorkloadError("negative size in " + self.name)

    @property
    def traffic_bytes(self) -> int:
        """Read + write sizes, the quantity total_traffic accumulates."""
        return self.request_bytes + self.response_bytes


def _interaction(name: str, is_write: bool, weight_class: str,
                 db_queries: int, response_kb: float,
                 log_bytes: int = 600) -> Interaction:
    """Build an interaction from its qualitative profile.

    ``weight_class`` sets CPU demand: "light" (static-ish pages),
    "medium" (single-entity dynamic pages), "heavy" (listing/search
    pages).
    """
    cpu = {
        "light": (0.0004, 0.0008, 0.0001),
        "medium": (0.0006, 0.0015, 0.00015),
        "heavy": (0.0008, 0.0025, 0.0002),
    }
    try:
        apache_cpu, tomcat_cpu, mysql_cpu = cpu[weight_class]
    except KeyError:
        raise WorkloadError("unknown weight class " + weight_class) from None
    return Interaction(
        name=name,
        is_write=is_write,
        apache_cpu=apache_cpu,
        tomcat_cpu=tomcat_cpu,
        mysql_cpu=mysql_cpu,
        db_queries=db_queries,
        request_bytes=400 if not is_write else 900,
        response_bytes=int(response_kb * 1024),
        log_bytes=log_bytes,
    )


#: The 24 RUBBoS interactions, keyed by name.
INTERACTIONS: dict[str, Interaction] = {
    interaction.name: interaction for interaction in [
        _interaction("StoriesOfTheDay", False, "heavy", 3, 24.0),
        _interaction("Default", False, "light", 0, 4.0),
        _interaction("BrowseCategories", False, "medium", 1, 8.0),
        _interaction("BrowseStoriesByCategory", False, "heavy", 2, 20.0),
        _interaction("OlderStories", False, "heavy", 2, 20.0),
        _interaction("ViewStory", False, "medium", 2, 16.0),
        _interaction("ViewComment", False, "medium", 2, 12.0),
        _interaction("PostCommentForm", False, "light", 1, 6.0),
        _interaction("StoreComment", True, "medium", 3, 4.0, log_bytes=900),
        _interaction("SubmitStoryForm", False, "light", 0, 5.0),
        _interaction("StoreStory", True, "medium", 3, 4.0, log_bytes=1100),
        _interaction("Search", False, "light", 0, 5.0),
        _interaction("SearchInStories", False, "heavy", 3, 18.0),
        _interaction("SearchInComments", False, "heavy", 3, 18.0),
        _interaction("SearchInUsers", False, "heavy", 2, 10.0),
        _interaction("ViewUserInfo", False, "medium", 1, 8.0),
        _interaction("RegisterUserForm", False, "light", 0, 5.0),
        _interaction("RegisterUser", True, "medium", 2, 4.0, log_bytes=800),
        _interaction("AuthorLogin", False, "light", 1, 5.0),
        _interaction("AuthorTasks", False, "medium", 1, 8.0),
        _interaction("ReviewStories", False, "heavy", 2, 16.0),
        _interaction("AcceptStory", True, "medium", 2, 4.0, log_bytes=800),
        _interaction("RejectStory", True, "medium", 2, 4.0, log_bytes=800),
        _interaction("ModerateComment", True, "medium", 2, 4.0, log_bytes=800),
    ]
}

if len(INTERACTIONS) != 24:  # pragma: no cover - module-load invariant
    raise WorkloadError("RUBBoS defines exactly 24 interactions")


def get_interaction(name: str) -> Interaction:
    """Look up an interaction by name."""
    try:
        return INTERACTIONS[name]
    except KeyError:
        raise WorkloadError("unknown interaction: " + name) from None
