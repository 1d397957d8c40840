"""Prompt templates for in-context learning (paper Fig. 3 and Fig. 13).

The prompt has two parts: a *task description* instructing the model to act
as a system-administration bot and answer only with a category, and a list of
*examples*, each a job sentence followed by its category.  The final query is
an example without a category; the model must complete it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.tokenization.templates import FEATURE_ORDER, JobRecord, record_to_sentence

__all__ = [
    "CATEGORY_NORMAL",
    "CATEGORY_ABNORMAL",
    "CATEGORIES",
    "PromptTemplate",
    "build_task_description",
    "format_example",
    "build_prompt",
]

CATEGORY_NORMAL = "Normal"
CATEGORY_ABNORMAL = "Abnormal"
CATEGORIES: tuple[str, str] = (CATEGORY_NORMAL, CATEGORY_ABNORMAL)


def build_task_description(
    feature_names: Sequence[str] = FEATURE_ORDER, *, ask_category_only: bool = True
) -> str:
    """The instruction block of the ICL prompt (paper Fig. 3).

    ``ask_category_only=False`` removes the "only respond with the category"
    constraint, which is how the chain-of-thought variant (Fig. 13) invites
    the model to reason step by step.
    """
    lines = [
        "You are a system administration bot.",
        "Your task is to assess a job description with a couple of features "
        "into one of the following categories:",
        CATEGORY_NORMAL,
        CATEGORY_ABNORMAL,
    ]
    if ask_category_only:
        lines += [
            "You will only respond with the category.",
            'Do not include the word "Category".',
            "Do not provide explanations or notes.",
        ]
    lines.append(
        f"A single job has {len(feature_names)} features, including " + ", ".join(feature_names)
    )
    return "\n".join(lines)


def format_example(
    record_or_sentence: JobRecord | str, label: int | None = None, *, with_category: bool = True
) -> str:
    """Format one in-context example: ``Instruct: ...\\nCategory: ...``."""
    if isinstance(record_or_sentence, JobRecord):
        sentence = record_to_sentence(record_or_sentence)
        if label is None:
            label = record_or_sentence.label
    else:
        sentence = record_or_sentence
    lines = [f"Instruct: {sentence}"]
    if with_category:
        if label is None:
            raise ValueError("a labeled example requires a label")
        lines.append(f"Category: {CATEGORY_ABNORMAL if label else CATEGORY_NORMAL}")
    else:
        lines.append("Category:")
    return "\n".join(lines)


@dataclass
class PromptTemplate:
    """Configurable prompt builder.

    Attributes
    ----------
    feature_names:
        Feature vocabulary advertised in the task description.
    chain_of_thought:
        Append the "Please think about it step by step." instruction and drop
        the "respond with only the category" constraint (Fig. 13).
    example_header:
        Separator placed before the example block.
    include_task_description:
        Emit the natural-language task-description block.  The paper's prompt
        always carries it; the scaled-down decoder models used for scoring
        work better without the long constant prefix (it dilutes attention
        over the informative feature tokens), so the ICL engine defaults to a
        compact prompt while display-oriented prompts keep the full text.
        No benchmark measures the two variants against each other, so the
        "work better" is unmeasured.
    """

    feature_names: tuple[str, ...] = FEATURE_ORDER
    chain_of_thought: bool = False
    example_header: str = "### Example ###"
    include_task_description: bool = True
    extra_instructions: list[str] = field(default_factory=list)

    def _head_parts(self, examples: Sequence[tuple[JobRecord | str, int]]) -> list[str]:
        parts = []
        if self.include_task_description:
            parts.append(
                build_task_description(
                    self.feature_names, ask_category_only=not self.chain_of_thought
                )
            )
        parts.extend(self.extra_instructions)
        if examples:
            parts.append(self.example_header)
            for example, label in examples:
                parts.append(format_example(example, label, with_category=True))
        return parts

    def head(self, examples: Sequence[tuple[JobRecord | str, int]] = ()) -> str:
        """The part of the prompt shared by every query given ``examples``.

        That is the task description, the extra instructions, the example
        header and the labelled examples.
        """
        return "\n".join(self._head_parts(examples))

    def tail(self, query: JobRecord | str) -> str:
        """The per-query part of the prompt.

        That is the unlabelled query line, plus the step-by-step instruction
        when ``chain_of_thought`` is set.
        """
        tail = format_example(query, with_category=False)
        if self.chain_of_thought:
            tail += "\nPlease think about it step by step."
        return tail

    def build(
        self,
        query: JobRecord | str,
        examples: Sequence[tuple[JobRecord | str, int]] = (),
    ) -> str:
        """Assemble the full prompt string for one query job.

        It is ``head(examples)`` and ``tail(query)`` joined by a newline, or
        just the tail when the head has no parts.
        """
        return "\n".join([*self._head_parts(examples), self.tail(query)])


def build_prompt(
    query: JobRecord | str,
    examples: Sequence[tuple[JobRecord | str, int]] = (),
    *,
    chain_of_thought: bool = False,
) -> str:
    """Convenience wrapper around :class:`PromptTemplate`."""
    return PromptTemplate(chain_of_thought=chain_of_thought).build(query, examples)
