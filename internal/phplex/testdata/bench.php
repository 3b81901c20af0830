<html><body>
<?php
function handler_0($req) {
    $id = $_GET['id_0'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_0 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 0) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_1($req) {
    $id = $_GET['id_1'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_1 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 1) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_2($req) {
    $id = $_GET['id_2'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_2 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 2) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_3($req) {
    $id = $_GET['id_3'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_3 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 3) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_4($req) {
    $id = $_GET['id_4'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_4 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 4) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_5($req) {
    $id = $_GET['id_5'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_5 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 5) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_6($req) {
    $id = $_GET['id_6'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_6 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 6) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_7($req) {
    $id = $_GET['id_7'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_7 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 7) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_8($req) {
    $id = $_GET['id_8'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_8 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 8) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_9($req) {
    $id = $_GET['id_9'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_9 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 9) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_10($req) {
    $id = $_GET['id_10'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_10 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 10) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_11($req) {
    $id = $_GET['id_11'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_11 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 11) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_12($req) {
    $id = $_GET['id_12'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_12 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 12) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_13($req) {
    $id = $_GET['id_13'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_13 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 13) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_14($req) {
    $id = $_GET['id_14'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_14 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 14) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_15($req) {
    $id = $_GET['id_15'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_15 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 15) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_16($req) {
    $id = $_GET['id_16'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_16 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 16) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_17($req) {
    $id = $_GET['id_17'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_17 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 17) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_18($req) {
    $id = $_GET['id_18'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_18 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 18) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_19($req) {
    $id = $_GET['id_19'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_19 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 19) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_20($req) {
    $id = $_GET['id_20'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_20 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 20) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_21($req) {
    $id = $_GET['id_21'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_21 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 21) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_22($req) {
    $id = $_GET['id_22'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_22 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 22) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_23($req) {
    $id = $_GET['id_23'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_23 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 23) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_24($req) {
    $id = $_GET['id_24'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_24 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 24) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_25($req) {
    $id = $_GET['id_25'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_25 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 25) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_26($req) {
    $id = $_GET['id_26'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_26 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 26) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_27($req) {
    $id = $_GET['id_27'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_27 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 27) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_28($req) {
    $id = $_GET['id_28'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_28 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 28) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_29($req) {
    $id = $_GET['id_29'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_29 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 29) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_30($req) {
    $id = $_GET['id_30'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_30 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 30) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_31($req) {
    $id = $_GET['id_31'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_31 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 31) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_32($req) {
    $id = $_GET['id_32'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_32 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 32) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_33($req) {
    $id = $_GET['id_33'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_33 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 33) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_34($req) {
    $id = $_GET['id_34'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_34 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 34) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_35($req) {
    $id = $_GET['id_35'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_35 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 35) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_36($req) {
    $id = $_GET['id_36'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_36 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 36) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_37($req) {
    $id = $_GET['id_37'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_37 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 37) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_38($req) {
    $id = $_GET['id_38'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_38 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 38) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
function handler_39($req) {
    $id = $_GET['id_39'];
    $name = mysql_real_escape_string($req['name']);
    $sql = "SELECT * FROM t_39 WHERE id = $id AND name = '$name'";
    $res = mysql_query($sql);
    if ($res && count($res) > 39) {
        echo "<div id='row-{$id}'>" . htmlentities($name) . '</div>';
    }
    return $res; // per-row handler
}
class Plugin_Widget {
    var $options = array('a' => 1, 'b' => 2);
    function render($attrs) {
        foreach ($attrs as $k => $v) { echo $k . '=' . $v; }
        return (int)$this->options['a'];
    }
}
?>
</body></html>
