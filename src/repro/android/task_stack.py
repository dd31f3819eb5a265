"""Task stacks — Android's activity back-stack bookkeeping.

"Android maintains certain task stacks to manage activities.  When an
activity is sent back to background, it remains in the stacks keeping
all statuses at that time ... users or apps equipped with proper
permissions could reorder the stack." (§IV-A).  E-Android watches these
stacks to delimit attack windows, so the simulator models them
explicitly: a :class:`TaskRecord` per app (package affinity) and a
:class:`TaskStackSupervisor` ordering tasks by recency.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from .activity import ActivityRecord


class TaskRecord:
    """One back stack of activities sharing a task affinity (package)."""

    _ids = itertools.count(1)

    def __init__(self, affinity: str) -> None:
        self.task_id = next(self._ids)
        self.affinity = affinity
        self.activities: List[ActivityRecord] = []  # bottom -> top

    @property
    def top(self) -> Optional[ActivityRecord]:
        """The top-most activity, or None for an empty task."""
        return self.activities[-1] if self.activities else None

    @property
    def empty(self) -> bool:
        """Whether the task holds no activities."""
        return not self.activities

    def push(self, record: ActivityRecord) -> None:
        """Place an activity on top of the stack."""
        self.activities.append(record)

    def pop(self) -> Optional[ActivityRecord]:
        """Remove and return the top activity."""
        return self.activities.pop() if self.activities else None

    def remove(self, record: ActivityRecord) -> bool:
        """Remove a specific activity wherever it sits in the stack."""
        try:
            self.activities.remove(record)
            return True
        except ValueError:
            return False

    def visible_records(self) -> List[ActivityRecord]:
        """Top activity plus any activities showing through transparency.

        Walking down from the top, every activity covered only by
        transparent activities above it is still visible.
        """
        visible: List[ActivityRecord] = []
        for record in reversed(self.activities):
            visible.append(record)
            if not record.transparent:
                break
        return visible

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = [r.component_name for r in self.activities]
        return f"TaskRecord(#{self.task_id}, {self.affinity}, {names})"


class TaskStackSupervisor:
    """Recency-ordered collection of tasks; the last task is frontmost."""

    def __init__(self) -> None:
        self._tasks: List[TaskRecord] = []
        self._by_affinity: Dict[str, TaskRecord] = {}

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def front_task(self) -> Optional[TaskRecord]:
        """The task currently at the front (showing on screen)."""
        return self._tasks[-1] if self._tasks else None

    @property
    def tasks(self) -> List[TaskRecord]:
        """All tasks, back to front (copy)."""
        return list(self._tasks)

    def task_for(self, affinity: str) -> Optional[TaskRecord]:
        """The existing task for an affinity, if any."""
        return self._by_affinity.get(affinity)

    def get_or_create_task(self, affinity: str) -> TaskRecord:
        """The task for an affinity, creating (at front) if missing."""
        task = self._by_affinity.get(affinity)
        if task is None:
            task = TaskRecord(affinity)
            self._tasks.append(task)
            self._by_affinity[affinity] = task
        return task

    def move_to_front(self, task: TaskRecord) -> None:
        """Reorder a task to the front (Android's moveTaskToFront)."""
        if task in self._tasks:
            self._tasks.remove(task)
        self._tasks.append(task)

    def remove_if_empty(self, task: TaskRecord) -> bool:
        """Drop a task that has no activities left."""
        if task.empty and task in self._tasks:
            self._tasks.remove(task)
            self._by_affinity.pop(task.affinity, None)
            return True
        return False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def front_record(self) -> Optional[ActivityRecord]:
        """The activity on top of the front task."""
        front = self.front_task
        return front.top if front else None

    def all_records(self) -> List[ActivityRecord]:
        """Every live activity record, back to front, bottom to top."""
        return [record for task in self._tasks for record in task.activities]

    def records_of_uid(self, uid: int) -> List[ActivityRecord]:
        """Every live record belonging to a uid."""
        return [record for record in self.all_records() if record.uid == uid]
